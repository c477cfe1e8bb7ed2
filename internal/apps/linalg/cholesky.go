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
	return dataflow{"cholesky", &cholesky{grid{n: n, b: b, seed: seed}}}
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
func (a *cholesky) build(places int, tiles [][]float64) (*dag.Graph, []func()) {
	T, b := a.tiles(), a.b
	b3 := int64(b) * int64(b) * int64(b)
	t := newTiledGraph("cholesky", T, b, places, tiles, true)
	for k := 0; k < T; k++ {
		t.add(label("potrf", k), b3/3,
			[]uint64{tileID(k, k)}, tileID(k, k),
			func() { potrf(t.at(k, k), b) })
		for i := k + 1; i < T; i++ {
			t.add(label("trsm", i, k), b3,
				[]uint64{tileID(k, k), tileID(i, k)}, tileID(i, k),
				func() { trsmRT(t.at(k, k), t.at(i, k), b) })
		}
		for i := k + 1; i < T; i++ {
			for j := k + 1; j <= i; j++ {
				if i == j {
					t.add(label("syrk", i, k), b3,
						[]uint64{tileID(i, k), tileID(i, i)}, tileID(i, i),
						func() { syrkL(t.at(i, k), t.at(i, i), b) })
				} else {
					t.add(label("gemm", i, j, k), 2*b3,
						[]uint64{tileID(i, k), tileID(j, k), tileID(i, j)}, tileID(i, j),
						func() { gemmNT(t.at(i, k), t.at(j, k), t.at(i, j), b) })
				}
			}
		}
	}
	return t.g, t.ops
}
