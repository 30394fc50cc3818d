package linalg

import "fmt"

// Fused, bounds-check-hoisted kernel helpers for the hot training and
// serving loops. Each routine re-slices its operands to the exact length
// up front (the `x = x[:n]` idiom) so the compiler proves every inner
// access in range and emits no per-element bounds checks. DotN and AxpyN
// evaluate in exactly the same floating-point order as Dot and Axpy, so
// swapping one for the other anywhere preserves bit-identical results.

// DotN returns the inner product of x[:n] and y[:n]. The summation order
// matches Dot element for element, so DotN(x, y, len(x)) is bit-identical
// to Dot(x, y); the explicit length lets callers keep oversized scratch
// buffers without re-slicing at every call site.
func DotN(x, y []float64, n int) float64 {
	x = x[:n]
	y = y[:n]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AxpyN computes y[:n] += a·x[:n] in the same element order as Axpy.
func AxpyN(a float64, x, y []float64, n int) {
	x = x[:n]
	y = y[:n]
	for i, v := range x {
		y[i] += a * v
	}
}

// SyrkAccum accumulates the upper triangle of the weighted symmetric
// rank-1 update A += w·x·xᵀ: A[i][j] += (w·x[i])·x[j] for j ≥ i, half the
// multiplies of OuterAccum(A, w, x, x) and no write below the diagonal.
// The lower triangle of A is left alone — a caller that accumulates a
// symmetric matrix through SyrkAccum reads back the upper triangle and
// mirrors it once (see the GMM trainers' moment update), not per row.
func SyrkAccum(a *Dense, w float64, x []float64) {
	if a.rows != a.cols || len(x) != a.rows {
		panic("linalg: syrk dimension mismatch")
	}
	n := len(x)
	for i, xi := range x {
		wx := w * xi
		y := x[i:]
		row := a.data[i*n+i : i*n+n][:len(y)]
		for j, v := range y {
			row[j] += wx * v
		}
	}
}

// SyrkAccumRows accumulates the upper triangle of A += Σᵣ wᵣ·xᵣ·xᵣᵀ over n
// rows: row r weighs w[r·ws] and is x[r·xs : r·xs+d], d the order of A. The
// strides let the caller keep row-major buffers that interleave several
// such operands — the K components of a mixture, one call per component.
// Rows are taken four at a time, so each element of A is read and written
// once per four products instead of once per product.
//
// Bit-identical to SyrkAccum(A, wᵣ, xᵣ) for r = 0…n-1: every element
// receives the same products in the same row order.
func SyrkAccumRows(a *Dense, w []float64, ws int, x []float64, xs int, n int) {
	d := a.rows
	if a.rows != a.cols {
		panic("linalg: syrk-rows destination is not square")
	}
	if n <= 0 {
		return
	}
	if len(w) <= (n-1)*ws || len(x) < (n-1)*xs+d {
		panic(fmt.Sprintf("linalg: syrk-rows %d rows of %d at strides %d and %d, have %d weights and %d values",
			n, d, ws, xs, len(w), len(x)))
	}
	r := 0
	for ; r+4 <= n; r += 4 {
		x0 := x[r*xs:][:d]
		x1 := x[(r+1)*xs:][:d]
		x2 := x[(r+2)*xs:][:d]
		x3 := x[(r+3)*xs:][:d]
		w0, w1, w2, w3 := w[r*ws], w[(r+1)*ws], w[(r+2)*ws], w[(r+3)*ws]
		for i, xi := range x0 {
			a0, a1, a2, a3 := w0*xi, w1*x1[i], w2*x2[i], w3*x3[i]
			y0 := x0[i:]
			y1 := x1[i:][:len(y0)]
			y2 := x2[i:][:len(y0)]
			y3 := x3[i:][:len(y0)]
			row := a.data[i*d+i : i*d+d][:len(y0)]
			for j, v := range y0 {
				row[j] = row[j] + a0*v + a1*y1[j] + a2*y2[j] + a3*y3[j]
			}
		}
	}
	for ; r < n; r++ {
		SyrkAccum(a, w[r*ws], x[r*xs:][:d])
	}
}

// OuterAccumRows accumulates dst += Σᵢ xᵢ·yᵢᵀ over the n rows of two
// row-major buffers (x is n×rows(dst), y is n×cols(dst)) — the layer-1
// weight gradient ΔᵀX of a whole chunk of examples. Rows are taken two at
// a time, so each dst element is read and written once per pair instead of
// once per row.
//
// Bit-identical to the rank-1 sequence OuterAccum(dst, 1, xᵢ, yᵢ) for
// i = 0…n-1: every element receives the same products in the same row
// order, and a zero xᵢ[h] skips its row of products exactly as OuterAccum
// does (so a non-finite yᵢ cannot turn a zero gradient into NaN).
func OuterAccumRows(dst *Dense, x, y []float64, n int) {
	r, c := dst.rows, dst.cols
	if len(x) < n*r || len(y) < n*c {
		panic(fmt.Sprintf("linalg: outer-rows %d rows of %d and %d need %d and %d values, have %d and %d",
			n, r, c, n*r, n*c, len(x), len(y)))
	}
	i := 0
	for ; i+2 <= n; i += 2 {
		x0, x1 := x[i*r:(i+1)*r], x[(i+1)*r:(i+2)*r]
		y0, y1 := y[i*c:(i+1)*c], y[(i+1)*c:(i+2)*c]
		x1 = x1[:len(x0)]
		y1 = y1[:len(y0)]
		for h, a0 := range x0 {
			a1 := x1[h]
			row := dst.data[h*c : (h+1)*c]
			switch {
			case a0 != 0 && a1 != 0:
				row = row[:len(y0)]
				for j, v := range y0 {
					row[j] = row[j] + a0*v + a1*y1[j]
				}
			case a0 != 0:
				AxpyN(a0, y0, row, c)
			case a1 != 0:
				AxpyN(a1, y1, row, c)
			}
		}
	}
	if i < n {
		y0 := y[i*c : (i+1)*c]
		for h, a0 := range x[i*r : (i+1)*r] {
			if a0 != 0 {
				AxpyN(a0, y0, dst.data[h*c:(h+1)*c], c)
			}
		}
	}
}
