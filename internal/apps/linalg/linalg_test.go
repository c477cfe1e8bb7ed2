package linalg

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/sched"
	"distws/internal/topology"
)

// small returns the suite at test scale: the same structure, far fewer
// flops.
func small(seed int64) []App {
	return []App{
		NewCholesky(128, 32, seed),
		NewLU(96, 32, seed),
		NewPipeline(8, 4, 256, seed),
	}
}

func newTestRuntime(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
		Policy:  sched.DistWS,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestParallelMatchesSequential pins the bit-exact checksum contract:
// the dependency edges totally order all writes per tile, so any legal
// schedule produces the identical floating-point result.
func TestParallelMatchesSequential(t *testing.T) {
	for _, app := range small(1) {
		app := app
		for _, pol := range []dag.Policy{dag.PolicyBlind, dag.PolicyDataAware} {
			pol := pol
			t.Run(app.Name()+"/"+pol.String(), func(t *testing.T) {
				want := app.Sequential()
				rt := newTestRuntime(t)
				defer rt.Shutdown()
				got, stats, err := app.Parallel(rt, pol)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("parallel checksum %#x != sequential %#x", got, want)
				}
				g, err := app.Graph(rt.Places())
				if err != nil {
					t.Fatal(err)
				}
				if stats.Released != int64(g.NumTasks()) {
					t.Fatalf("released %d of %d tasks", stats.Released, g.NumTasks())
				}
				if stats.ResidentHits+stats.ResidentMisses == 0 {
					t.Fatal("no residency lookups recorded")
				}
			})
		}
	}
}

// TestConcurrentRunsShareOneGraph: two Parallel runs of one app on one
// runtime, a Graph call and a Sequential racing them, each the first use
// of its place count. The runs must match the sequential checksum, and
// every caller must get the one graph built for its place count. Under
// -race this checks the graph cache and the kernels, which share nothing
// but the tiles each run binds.
func TestConcurrentRunsShareOneGraph(t *testing.T) {
	for _, app := range small(1) {
		rt := newTestRuntime(t)
		sums := make([]uint64, 2)
		errs := make([]error, 3)
		var g *dag.Graph
		var seq uint64
		var wg sync.WaitGroup
		for i := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[i], _, errs[i] = app.Parallel(rt, dag.PolicyDataAware)
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			g, errs[2] = app.Graph(rt.Places())
		}()
		go func() {
			defer wg.Done()
			seq = app.Sequential()
		}()
		wg.Wait()
		rt.Shutdown()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: call %d: %v", app.Name(), i, err)
			}
		}
		for i, sum := range sums {
			if sum != seq {
				t.Errorf("%s: run %d checksum %#x, sequential %#x", app.Name(), i, sum, seq)
			}
		}
		if again, err := app.Graph(rt.Places()); err != nil || again != g {
			t.Errorf("%s: Graph returned %p, then %p (%v): built more than once", app.Name(), g, again, err)
		}
	}
}

// TestSequentialChecksumIsPinned pins every Sequential checksum, at suite
// and test scale and two seeds: a tile kernel must keep each output's
// exact floating-point sequence, so any rewrite of one leaves these
// bit-identical. The values are amd64's; the compiler may fuse a
// multiply-subtract into one rounding on other architectures. The final
// tiles' byte-wise FNV-1a (byteFold) is pinned beside each checksum: those
// are the values pinned before checksum became a word fold, so they still
// show that the fold's change moved no kernel output.
func TestSequentialChecksumIsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checksums pinned on amd64, where no multiply-subtract is fused")
	}
	// want[seed][scale][app]: scale 0 is Suite, 1 is small.
	want := map[int64][2][3]uint64{
		1: {
			{0x7a983dc486fa20a3, 0xe088e0a3fcd5414b, 0x9d9563785421b1d6},
			{0x92f3eda82aa3c211, 0xdf7c49b2b7afb557, 0x976f9e1e93015f72},
		},
		2: {
			{0x0cf50276ce2aa789, 0xfac8a9d8f7292bbe, 0xf19b2b20b56bb189},
			{0x155d5c41fd5166f8, 0x41f72c337259f7c0, 0xccb28e4434291491},
		},
	}
	wantBytes := map[int64][2][3]uint64{
		1: {
			{0x8651a364072d40cd, 0xad6ff5b1704194fe, 0x5aa3ba7d3654b8b3},
			{0x20c8ba5ad197eb9c, 0x8f0d9b6c52941b6a, 0xc45cb1b88fd22fee},
		},
		2: {
			{0x8618217633b2b647, 0x43b11ab1b837c78c, 0x827a048e45306114},
			{0x38632b740d9fd561, 0xd7148f49a1420bdb, 0x50996079c4037329},
		},
	}
	for seed, w := range want {
		for scale, suite := range [][]App{Suite(seed), small(seed)} {
			for i, app := range suite {
				where := fmt.Sprintf("%s seed %d %s scale", app.Name(), seed, []string{"suite", "test"}[scale])
				if got := app.Sequential(); got != w[scale][i] {
					t.Errorf("%s: checksum %#x, want %#x", where, got, w[scale][i])
				}
				if got, want := byteFold(app.(*dataflow).final()), wantBytes[seed][scale][i]; got != want {
					t.Errorf("%s: byte fold %#x, want %#x", where, got, want)
				}
			}
		}
	}
}

// byteFold is the byte-wise FNV-1a checksum over the exact bit patterns
// of every value, the fold checksum used before its word fold.
func byteFold(tiles [][]float64) uint64 {
	h := apps.NewFnv()
	for _, t := range tiles {
		for _, v := range t {
			h.Add(math.Float64bits(v))
		}
	}
	return h.Sum()
}

// TestGraphsValidate checks the benchmark-scale graphs are well-formed
// at several cluster sizes, including more places than any task's home.
func TestGraphsValidate(t *testing.T) {
	for _, app := range Suite(1) {
		for _, places := range []int{1, 4, 16} {
			g, err := app.Graph(places)
			if err != nil {
				t.Fatalf("%s at %d places: %v", app.Name(), places, err)
			}
			if g.NumTasks() == 0 || g.TotalWorkNS() <= 0 {
				t.Fatalf("%s: empty graph", app.Name())
			}
		}
	}
}

// TestGraphShapes pins the task counts implied by the tiled algorithms.
func TestGraphShapes(t *testing.T) {
	// Cholesky over T tiles: T potrf + T(T-1)/2 trsm + T(T-1)/2 syrk +
	// T(T-1)(T-2)/6 gemm.
	g, err := NewCholesky(128, 32, 1).Graph(4) // T = 4
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 6 + 6 + 4; g.NumTasks() != want {
		t.Fatalf("cholesky T=4: %d tasks, want %d", g.NumTasks(), want)
	}
	// LU over T tiles: T getrf + T(T-1) trsm + T(T-1)(2T-1)/6 gemm.
	g, err = NewLU(96, 32, 1).Graph(4) // T = 3
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + 6 + 5; g.NumTasks() != want {
		t.Fatalf("lu T=3: %d tasks, want %d", g.NumTasks(), want)
	}
	g, err = NewPipeline(8, 4, 256, 1).Graph(4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * 4; g.NumTasks() != want {
		t.Fatalf("pipeline: %d tasks, want %d", g.NumTasks(), want)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("ByName accepted an unknown app")
	}
}

// TestSequentialDeterministic pins that reference checksums depend only
// on the seed.
func TestSequentialDeterministic(t *testing.T) {
	for _, name := range Names() {
		a1, _ := ByName(name, 7)
		a2, _ := ByName(name, 7)
		if c1, c2 := a1.Sequential(), a2.Sequential(); c1 != c2 {
			t.Fatalf("%s: sequential checksums diverged: %#x vs %#x", name, c1, c2)
		}
	}
}

// TestGenerateAtMatchesGenerate checks that per-place generation, one
// pinned task per seeded tile, writes the tiles Sequential's in-order
// generate does, bit for bit, and leaves the same slots (Cholesky's upper
// tiles) nil.
func TestGenerateAtMatchesGenerate(t *testing.T) {
	for _, places := range []int{1, 2, 3, 4, 7} {
		t.Run(fmt.Sprintf("%dplaces", places), func(t *testing.T) {
			rt, err := core.New(core.Config{
				Cluster: topology.Cluster{Places: places, WorkersPerPlace: 1},
				Policy:  sched.DistWS,
				Seed:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			for _, app := range small(1) {
				a := app.(*dataflow)
				want := make([][]float64, a.size())
				g, _ := a.graph(1)
				a.generate(g, want)
				got := make([][]float64, a.size())
				g, _ = a.graph(places)
				if err := a.generateAt(rt, g, got); err != nil {
					t.Fatalf("%s: %v", a.name, err)
				}
				nils := 0
				for k := range want {
					if want[k] == nil {
						nils++
					}
					if !sameBits(got[k], want[k]) {
						t.Fatalf("%s: tile %d differs from generate's", a.name, k)
					}
				}
				if a.name == "cholesky" && nils != 6 {
					t.Fatalf("cholesky T=4: %d nil tiles, want the 6 upper ones", nils)
				}
			}
		})
	}
}

// sameBits reports whether x and y hold the same values bit for bit; a
// nil tile equals only a nil tile.
func sameBits(x, y []float64) bool {
	if (x == nil) != (y == nil) || len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestChecksumSensitivity checks that checksum moves on each small
// corruption a wrong schedule could leave in the final tiles: any one
// bit of the first, a middle or the last value, the signs of two
// adjacent values (which cancel in a word fold without the mixing
// step), and two tiles swapped.
func TestChecksumSensitivity(t *testing.T) {
	for _, app := range small(1) {
		a := app.(*dataflow)
		tiles := a.final()
		base := checksum(tiles)
		// vals addresses every value in fold order.
		var vals []*float64
		var full []int // indices of non-nil tiles
		for k, tile := range tiles {
			if tile != nil {
				full = append(full, k)
			}
			for i := range tile {
				vals = append(vals, &tile[i])
			}
		}
		flip := func(v *float64, mask uint64) { *v = math.Float64frombits(math.Float64bits(*v) ^ mask) }
		for _, i := range []int{0, len(vals) / 2, len(vals) - 1} {
			for bit := 0; bit < 64; bit++ {
				flip(vals[i], 1<<bit)
				if checksum(tiles) == base {
					t.Errorf("%s: flipping bit %d of value %d leaves the checksum", a.name, bit, i)
				}
				flip(vals[i], 1<<bit)
			}
		}
		for _, i := range []int{0, len(vals) / 2, len(vals) - 2} {
			flip(vals[i], 1<<63)
			flip(vals[i+1], 1<<63)
			if checksum(tiles) == base {
				t.Errorf("%s: flipping the signs of values %d and %d leaves the checksum", a.name, i, i+1)
			}
			flip(vals[i], 1<<63)
			flip(vals[i+1], 1<<63)
		}
		x, y := full[0], full[len(full)-1]
		tiles[x], tiles[y] = tiles[y], tiles[x]
		if checksum(tiles) == base {
			t.Errorf("%s: swapping tiles %d and %d leaves the checksum", a.name, x, y)
		}
		tiles[x], tiles[y] = tiles[y], tiles[x]
		if checksum(tiles) != base {
			t.Fatalf("%s: checksum not restored after undoing every change", a.name)
		}
	}
}

// checksumSink keeps BenchmarkChecksum's folds from being optimized away.
var checksumSink uint64

// BenchmarkChecksum times the byte-wise FNV-1a fold (byteFold) against
// checksum's word fold over each of Suite(1)'s final tiles, in ns per
// folded value.
func BenchmarkChecksum(b *testing.B) {
	for _, app := range Suite(1) {
		tiles := app.(*dataflow).final()
		n := 0
		for _, t := range tiles {
			n += len(t)
		}
		for _, f := range []struct {
			name string
			fold func([][]float64) uint64
		}{{"bytes", byteFold}, {"words", checksum}} {
			b.Run(app.Name()+"/"+f.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					checksumSink = f.fold(tiles)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/value")
			})
		}
	}
}

// fmtLabels is the label sequence of a's graph as the builds formatted it
// with fmt.Sprintf, in program order: the oracle label is held to.
func fmtLabels(a App) []string {
	var want []string
	add := func(format string, args ...any) { want = append(want, fmt.Sprintf(format, args...)) }
	switch k := a.(*dataflow).kernels.(type) {
	case *cholesky:
		T := k.tiles()
		for c := 0; c < T; c++ {
			add("potrf(%d)", c)
			for i := c + 1; i < T; i++ {
				add("trsm(%d,%d)", i, c)
			}
			for i := c + 1; i < T; i++ {
				for j := c + 1; j <= i; j++ {
					if i == j {
						add("syrk(%d,%d)", i, c)
					} else {
						add("gemm(%d,%d,%d)", i, j, c)
					}
				}
			}
		}
	case *lu:
		T := k.tiles()
		for c := 0; c < T; c++ {
			add("getrf(%d)", c)
			for j := c + 1; j < T; j++ {
				add("trsmL(%d,%d)", c, j)
			}
			for i := c + 1; i < T; i++ {
				add("trsmU(%d,%d)", i, c)
			}
			for i := c + 1; i < T; i++ {
				for j := c + 1; j < T; j++ {
					add("gemm(%d,%d,%d)", i, j, c)
				}
			}
		}
	case *pipeline:
		for s := 0; s < k.stages; s++ {
			for i := 0; i < k.items; i++ {
				add("stage(%d,%d)", i, s)
			}
		}
	}
	return want
}

// Every task label of the suite and of the benchmark's quick sizes is
// the string fmt.Sprintf made before label replaced it.
func TestLabelsMatchFmt(t *testing.T) {
	apps := append(Suite(1), NewCholesky(64, 16, 1), NewLU(64, 16, 1), NewPipeline(8, 4, 256, 1))
	for _, a := range apps {
		g, err := a.Graph(16)
		if err != nil {
			t.Fatal(err)
		}
		want := fmtLabels(a)
		if len(want) != len(g.Tasks) {
			t.Fatalf("%s: %d tasks, the oracle formats %d labels", a.Name(), len(g.Tasks), len(want))
		}
		for i, task := range g.Tasks {
			if task.Label != want[i] {
				t.Fatalf("%s: task %d labelled %q, want %q", a.Name(), i, task.Label, want[i])
			}
		}
	}
}
