package linalg

import (
	"fmt"

	"distws/internal/dag"
)

// lu is the tiled right-looking LU factorization A = L·U without
// pivoting. Per elimination step k: GETRF factors the diagonal tile,
// TRSM solves the row panel against L(k,k) and the column panel against
// U(k,k), and GEMM updates the trailing submatrix. The generated matrix
// is strictly diagonally dominant, which stays diagonally dominant
// through elimination, so no pivot ever vanishes.
type lu struct{ grid }

// NewLU returns the workload for an n×n matrix in b×b tiles (b must
// divide n).
func NewLU(n, b int, seed int64) App {
	if n <= 0 || b <= 0 || n%b != 0 {
		panic(fmt.Sprintf("linalg: LU n=%d b=%d, want b | n", n, b))
	}
	return &dataflow{name: "lu", kernels: &lu{grid{n: n, b: b, seed: seed}}}
}

func (a *lu) tile(k int) []float64 {
	T, b := a.tiles(), a.b
	i0, j0 := k/T*b, k%T*b
	t := make([]float64, b*b)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			gi, gj := i0+r, j0+c
			v := hash01(a.seed, gi, gj)
			if gi == gj {
				v += float64(a.n)
			}
			t[r*b+c] = v
		}
	}
	return t
}

// build emits the task graph in right-looking program order over every
// tile (see tiledGraph for seeds and homes).
func (a *lu) build(places int) (*dag.Graph, []op) {
	T, b := a.tiles(), a.b
	b3 := int64(b) * int64(b) * int64(b)
	t := newTiledGraph("lu", a.grid, places)
	for k := 0; k < T; k++ {
		t.add(label("getrf", k), 2*b3/3,
			[]int{t.blk(k, k)}, t.blk(k, k),
			func(d [][]float64) { getrf(a.at(d, k, k), b) })
		for j := k + 1; j < T; j++ {
			t.add(label("trsmL", k, j), b3,
				[]int{t.blk(k, k), t.blk(k, j)}, t.blk(k, j),
				func(d [][]float64) { trsmLL(a.at(d, k, k), a.at(d, k, j), b) })
		}
		for i := k + 1; i < T; i++ {
			t.add(label("trsmU", i, k), b3,
				[]int{t.blk(k, k), t.blk(i, k)}, t.blk(i, k),
				func(d [][]float64) { trsmRU(a.at(d, k, k), a.at(d, i, k), b) })
		}
		for i := k + 1; i < T; i++ {
			for j := k + 1; j < T; j++ {
				t.add(label("gemm", i, j, k), 2*b3,
					[]int{t.blk(i, k), t.blk(k, j), t.blk(i, j)}, t.blk(i, j),
					func(d [][]float64) { gemmNN(a.at(d, i, k), a.at(d, k, j), a.at(d, i, j), b) })
			}
		}
	}
	return t.g, t.ops
}
