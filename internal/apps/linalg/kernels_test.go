package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The naive tile loops, the oracle every blocked kernel in kernels.go
// must match bit for bit.

func naiveGemmNT(a, bt, c []float64, b int) {
	for r := 0; r < b; r++ {
		for s := 0; s < b; s++ {
			x := c[r*b+s]
			for k := 0; k < b; k++ {
				x -= a[r*b+k] * bt[s*b+k]
			}
			c[r*b+s] = x
		}
	}
}

func naiveSyrkL(a, c []float64, b int) {
	for r := 0; r < b; r++ {
		for s := 0; s <= r; s++ {
			x := c[r*b+s]
			for k := 0; k < b; k++ {
				x -= a[r*b+k] * a[s*b+k]
			}
			c[r*b+s] = x
		}
	}
}

func naiveGemmNN(a, bm, c []float64, b int) {
	for r := 0; r < b; r++ {
		for s := 0; s < b; s++ {
			x := c[r*b+s]
			for k := 0; k < b; k++ {
				x -= a[r*b+k] * bm[k*b+s]
			}
			c[r*b+s] = x
		}
	}
}

func naiveTrsmRT(l, a []float64, b int) {
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			x := a[r*b+c]
			for m := 0; m < c; m++ {
				x -= a[r*b+m] * l[c*b+m]
			}
			a[r*b+c] = x / l[c*b+c]
		}
	}
}

func naiveTrsmRU(lu, a []float64, b int) {
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			x := a[r*b+c]
			for m := 0; m < c; m++ {
				x -= a[r*b+m] * lu[m*b+c]
			}
			a[r*b+c] = x / lu[c*b+c]
		}
	}
}

func naiveTrsmLL(lu, a []float64, b int) {
	for c := 0; c < b; c++ {
		for r := 0; r < b; r++ {
			x := a[r*b+c]
			for m := 0; m < r; m++ {
				x -= lu[r*b+m] * a[m*b+c]
			}
			a[r*b+c] = x
		}
	}
}

// tileKernel is one blocked kernel and its oracle, both in the
// (in, out, b) form: in is read, out updated in place. flops is the
// count the task graph charges for it.
type tileKernel struct {
	name           string
	blocked, naive func(in, out []float64, b int)
	flops          func(b int) int64
}

func cube(b int) int64 { return int64(b) * int64(b) * int64(b) }

// tileKernels lists the blocked kernels; gemm's second operand is the
// tile in[b*b:], so in holds two tiles.
var tileKernels = []tileKernel{
	{"gemmNT",
		func(in, out []float64, b int) { gemmNT(in[:b*b], in[b*b:], out, b) },
		func(in, out []float64, b int) { naiveGemmNT(in[:b*b], in[b*b:], out, b) },
		func(b int) int64 { return 2 * cube(b) }},
	{"gemmNN",
		func(in, out []float64, b int) { gemmNN(in[:b*b], in[b*b:], out, b) },
		func(in, out []float64, b int) { naiveGemmNN(in[:b*b], in[b*b:], out, b) },
		func(b int) int64 { return 2 * cube(b) }},
	{"syrkL", syrkL, naiveSyrkL, cube},
	{"trsmRT", trsmRT, naiveTrsmRT, cube},
	{"trsmRU", trsmRU, naiveTrsmRU, cube},
	{"trsmLL", trsmLL, naiveTrsmLL, cube},
}

// randTiles returns the kernel's input (two tiles, the first with a
// dominant diagonal, so the solves stay well conditioned) and output.
func randTiles(rng *rand.Rand, b int) (in, out []float64) {
	in = make([]float64, 2*b*b)
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}
	for r := 0; r < b; r++ {
		in[r*b+r] += float64(b)
	}
	out = make([]float64, b*b)
	for i := range out {
		out[i] = rng.Float64()*2 - 1
	}
	return in, out
}

// TestTileKernelsMatchNaive runs every blocked kernel against its naive
// loop on random tiles, at sizes that take every remainder path, and
// compares each output bit for bit.
// naiveStage is the pipeline's stage as a one-element loop.
func naiveStage(buf []float64, seed int64, s int) {
	for rep := 0; rep < stageReps; rep++ {
		c := 1 + hash01(seed, 1<<20+s, rep)/(1<<10)
		d := hash01(seed, 2<<20+s, rep)
		for e := range buf {
			buf[e] = buf[e]*c + d
		}
	}
}

// The four-element stage against the one-element loop, bit for bit, at
// every remainder of the width.
func TestStageMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for width := 0; width <= 9; width++ {
		got := make([]float64, width)
		for i := range got {
			got[i] = rng.Float64()
		}
		want := append([]float64(nil), got...)
		stage(got, 3, width)
		naiveStage(want, 3, width)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("width %d: element %d = %v, naive %v", width, i, got[i], want[i])
			}
		}
	}
}

func TestTileKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range tileKernels {
		for _, b := range []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33} {
			in, want := randTiles(rng, b)
			got := append([]float64(nil), want...)
			before := append([]float64(nil), want...)
			k.naive(in, want, b)
			k.blocked(in, got, b)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s b=%d: element (%d,%d) = %v, naive %v",
						k.name, b, i/b, i%b, got[i], want[i])
				}
			}
			if k.name != "syrkL" {
				continue
			}
			for r := 0; r < b; r++ {
				for s := r + 1; s < b; s++ {
					if math.Float64bits(got[r*b+s]) != math.Float64bits(before[r*b+s]) {
						t.Fatalf("syrkL b=%d wrote the strict upper element (%d,%d)", b, r, s)
					}
				}
			}
		}
	}
}

// BenchmarkTileKernels times each kernel, naive and blocked, on one
// 32×32 tile, the suite's: an op restores the output tile (a 1024-value
// copy, in both) and runs the kernel once.
func BenchmarkTileKernels(b *testing.B) {
	const tb = 32
	in, out := randTiles(rand.New(rand.NewSource(1)), tb)
	for _, k := range tileKernels {
		for _, v := range []struct {
			name string
			run  func(in, out []float64, b int)
		}{{"naive", k.naive}, {"blocked", k.blocked}} {
			b.Run(fmt.Sprintf("%s/%s", k.name, v.name), func(b *testing.B) {
				c := make([]float64, len(out))
				for i := 0; i < b.N; i++ {
					copy(c, out)
					v.run(in, c, tb)
				}
				b.ReportMetric(float64(k.flops(tb))*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}
