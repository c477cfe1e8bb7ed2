package linalg

import (
	"fmt"

	"distws/internal/dag"
)

// cholesky is the tiled right-looking Cholesky factorization A = L·Lᵀ of
// a symmetric positive-definite matrix: the canonical dataflow
// linear-algebra workload. Per elimination step k: POTRF factors the
// diagonal tile, TRSM applies it down the panel, and SYRK/GEMM update
// the trailing submatrix — each kernel a task whose dependencies follow
// from the tiles it reads and writes.
type cholesky struct{ grid }

// NewCholesky returns the workload for an n×n matrix in b×b tiles
// (b must divide n).
func NewCholesky(n, b int, seed int64) App {
	if n <= 0 || b <= 0 || n%b != 0 {
		panic(fmt.Sprintf("linalg: Cholesky n=%d b=%d, want b | n", n, b))
	}
	return &dataflow{name: "cholesky", kernels: &cholesky{grid{n: n, b: b, seed: seed, lower: true}}}
}

// tile materializes lower tile k of a symmetric strictly diagonally
// dominant matrix (off-diagonal entries in [0,1), diagonal raised by n),
// which is positive definite, so the factorization never hits a
// non-positive pivot.
func (a *cholesky) tile(k int) []float64 {
	T, b := a.tiles(), a.b
	i0, j0 := k/T*b, k%T*b
	t := make([]float64, b*b)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			gi, gj := i0+r, j0+c
			v := hash01(a.seed, min(gi, gj), max(gi, gj))
			if gi == gj {
				v += float64(a.n)
			}
			t[r*b+c] = v
		}
	}
	return t
}

// build emits the task graph in right-looking program order over the
// lower tiles (see tiledGraph for seeds and homes).
func (a *cholesky) build(places int) (*dag.Graph, []op) {
	T, b := a.tiles(), a.b
	b3 := int64(b) * int64(b) * int64(b)
	t := newTiledGraph("cholesky", a.grid, places)
	for k := 0; k < T; k++ {
		t.add(label("potrf", k), b3/3,
			[]int{t.blk(k, k)}, t.blk(k, k),
			func(d [][]float64) { potrf(a.at(d, k, k), b) })
		for i := k + 1; i < T; i++ {
			t.add(label("trsm", i, k), b3,
				[]int{t.blk(k, k), t.blk(i, k)}, t.blk(i, k),
				func(d [][]float64) { trsmRT(a.at(d, k, k), a.at(d, i, k), b) })
		}
		for i := k + 1; i < T; i++ {
			for j := k + 1; j <= i; j++ {
				if i == j {
					t.add(label("syrk", i, k), b3,
						[]int{t.blk(i, k), t.blk(i, i)}, t.blk(i, i),
						func(d [][]float64) { syrkL(a.at(d, i, k), a.at(d, i, i), b) })
				} else {
					t.add(label("gemm", i, j, k), 2*b3,
						[]int{t.blk(i, k), t.blk(j, k), t.blk(i, j)}, t.blk(i, j),
						func(d [][]float64) { gemmNT(a.at(d, i, k), a.at(d, j, k), a.at(d, i, j), b) })
				}
			}
		}
	}
	return t.g, t.ops
}
