package linalg

import "math"

// The tile kernels. A tile is b×b, row-major: element (r, c) at r*b+c.
//
// The update and solve kernels are register-blocked, several independent
// outputs per pass over k, and slice their rows so the compiler drops
// the bounds checks. Every output still keeps the naive loop's exact
// floating-point sequence: it starts from its stored value, subtracts
// the products one at a time in ascending k and, in a solve, divides by
// the diagonal last. No output is split across accumulators, no k is
// reordered and no multiply-subtract is fused by hand, so every result,
// and so every checksum, is bit-identical to the naive loops
// kernels_test.go keeps as the oracle.

// potrf factors tile a in place: lower-triangular L with a[r][c] for
// r >= c; the strictly-upper entries are left untouched.
func potrf(a []float64, b int) {
	for c := 0; c < b; c++ {
		d := a[c*b+c]
		for k := 0; k < c; k++ {
			d -= a[c*b+k] * a[c*b+k]
		}
		d = math.Sqrt(d)
		a[c*b+c] = d
		for r := c + 1; r < b; r++ {
			x := a[r*b+c]
			for k := 0; k < c; k++ {
				x -= a[r*b+k] * a[c*b+k]
			}
			a[r*b+c] = x / d
		}
	}
}

// getrf factors tile a in place into unit-lower L and upper U.
func getrf(a []float64, b int) {
	for k := 0; k < b; k++ {
		piv := a[k*b+k]
		for r := k + 1; r < b; r++ {
			l := a[r*b+k] / piv
			a[r*b+k] = l
			for s := k + 1; s < b; s++ {
				a[r*b+s] -= l * a[k*b+s]
			}
		}
	}
}

// gemmNT updates c with -a·btᵀ.
func gemmNT(a, bt, c []float64, b int) { subNT(a, bt, c, b, false) }

// syrkL updates the lower triangle of c with -a·aᵀ.
func syrkL(a, c []float64, b int) { subNT(a, a, c, b, true) }

// gemmNN updates c with -a·bm: bm transposed onto the stack, then the
// row-by-row kernel.
func gemmNN(a, bm, c []float64, b int) {
	var buf packBuf
	subNT(a, buf.transpose(bm, b), c, b, false)
}

// trsmRU solves X·U = A in place (A := A·U⁻¹) against the upper factor
// packed in lu: Uᵀ on the stack, then trsmRT's row solve.
func trsmRU(lu, a []float64, b int) {
	var buf packBuf
	trsmRT(buf.transpose(lu, b), a, b)
}

// subNT computes c[r][s] -= Σ_k a[r][k]·bt[s][k] over every column s, or
// only s <= r when lower, which never writes the strict upper triangle.
// Rows and columns go two by two: four independent outputs per k.
func subNT(a, bt, c []float64, b int, lower bool) {
	for r := 0; r < b; r += 2 {
		n := b // columns row r updates
		if lower {
			n = r + 1
		}
		a0, c0 := a[r*b:r*b+b], c[r*b:r*b+n]
		if r+1 == b {
			for s := range c0 {
				c0[s] = sub(c0[s], a0, bt[s*b:s*b+b])
			}
			return
		}
		a1, c1 := a[(r+1)*b:(r+1)*b+b], c[(r+1)*b:(r+1)*b+b]
		s := 0
		for ; s+1 < n; s += 2 {
			b0, b1 := bt[s*b:s*b+b], bt[(s+1)*b:(s+1)*b+b]
			a1, b0, b1 := a1[:len(a0)], b0[:len(a0)], b1[:len(a0)]
			x00, x01, x10, x11 := c0[s], c0[s+1], c1[s], c1[s+1]
			for k, u := range a0 {
				v, p, q := a1[k], b0[k], b1[k]
				x00 -= u * p
				x01 -= u * q
				x10 -= v * p
				x11 -= v * q
			}
			c0[s], c0[s+1], c1[s], c1[s+1] = x00, x01, x10, x11
		}
		for ; s < n; s++ {
			c0[s], c1[s] = sub2(c0[s], c1[s], a0, a1, bt[s*b:s*b+b])
		}
		if lower { // row r+1 reaches one column further, onto the diagonal
			c1[n] = sub(c1[n], a1, bt[n*b:n*b+b])
		}
	}
}

// trsmRT solves X·Lᵀ = A in place (A := A·L⁻ᵀ) against the lower
// factor l: for each row r and then column c ascending,
// a[r][c] = (a[r][c] - Σ_{m<c} a[r][m]·l[c][m]) / l[c][c], two rows,
// which are independent, at a time.
func trsmRT(l, a []float64, b int) {
	for r := 0; r < b; r += 2 {
		a0 := a[r*b : r*b+b]
		if r+1 == b {
			for c := range a0 {
				lc := l[c*b : c*b+c+1]
				a0[c] = sub(a0[c], a0[:c], lc[:c]) / lc[c]
			}
			return
		}
		a1 := a[(r+1)*b : (r+1)*b+b]
		for c := range a0 {
			lc := l[c*b : c*b+c+1]
			x0, x1 := sub2(a0[c], a1[c], a0[:c], a1[:c], lc[:c])
			a0[c], a1[c] = x0/lc[c], x1/lc[c]
		}
	}
}

// trsmLL solves L·X = A in place (A := L⁻¹·A) against the unit-lower
// factor packed in lu: for each column c and then row r ascending,
// a[r][c] -= Σ_{m<r} lu[r][m]·a[m][c], four columns, which are
// independent, at a time.
func trsmLL(lu, a []float64, b int) {
	c := 0
	for ; c+4 <= b; c += 4 {
		for r := 1; r < b; r++ {
			q := a[r*b+c : r*b+c+4]
			x0, x1, x2, x3 := q[0], q[1], q[2], q[3]
			o := c
			for _, l := range lu[r*b : r*b+r] {
				p := a[o : o+4]
				x0 -= l * p[0]
				x1 -= l * p[1]
				x2 -= l * p[2]
				x3 -= l * p[3]
				o += b
			}
			q[0], q[1], q[2], q[3] = x0, x1, x2, x3
		}
	}
	for ; c < b; c++ {
		for r := 1; r < b; r++ {
			x := a[r*b+c]
			o := c
			for _, l := range lu[r*b : r*b+r] {
				x -= l * a[o]
				o += b
			}
			a[r*b+c] = x
		}
	}
}

// sub returns x - Σ_k u[k]·v[k], k ascending.
func sub(x float64, u, v []float64) float64 {
	v = v[:len(u)]
	for k, p := range u {
		x -= p * v[k]
	}
	return x
}

// sub2 is sub for two rows u0, u1 against one v.
func sub2(x0, x1 float64, u0, u1, v []float64) (float64, float64) {
	u1, v = u1[:len(u0)], v[:len(u0)]
	for k, p := range u0 {
		x0 -= p * v[k]
		x1 -= u1[k] * v[k]
	}
	return x0, x1
}

// packBuf holds one transposed tile on the caller's stack, up to the
// suite's 32×32; a larger tile is transposed onto the heap.
type packBuf [32 * 32]float64

// transpose returns src's b×b transpose, in buf when it fits.
func (buf *packBuf) transpose(src []float64, b int) []float64 {
	dst := buf[:]
	if b*b > len(buf) {
		dst = make([]float64, b*b)
	}
	dst = dst[:b*b]
	for r := 0; r < b; r++ {
		row := src[r*b : r*b+b]
		for c, x := range row {
			dst[c*b+r] = x
		}
	}
	return dst
}
