package linalg

import "fmt"

// Fused, bounds-check-hoisted kernel helpers for the hot training and
// serving loops. Each routine re-slices its operands to the exact length
// up front (the `x = x[:n]` idiom) so the compiler proves every inner
// access in range and emits no per-element bounds checks. DotN and AxpyN
// evaluate in exactly the same floating-point order as Dot and Axpy, so
// swapping one for the other anywhere preserves bit-identical results;
// SyrkAccum is the exception and says so below.

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

// SyrkAccum accumulates the weighted symmetric rank-1 update A += w·x·xᵀ,
// computing each strictly-upper product once and mirroring it into the
// lower triangle — half the multiplies of OuterAccum(A, w, x, x).
//
// Not bit-identical to OuterAccum: OuterAccum derives A[j][i] from
// fl(fl(w·x[j])·x[i]) while the mirror copies fl(fl(w·x[i])·x[j]), which
// can differ by one ulp. Use it only on paths whose outputs are not pinned
// bit-identical against an OuterAccum-based twin (the cross-strategy
// harnesses tolerate rounding; the streaming incremental-vs-full pin does
// not, so internal/stream and the factorized M-step keep OuterAccum).
func SyrkAccum(a *Dense, w float64, x []float64) {
	if a.rows != a.cols || len(x) != a.rows {
		panic("linalg: syrk dimension mismatch")
	}
	n := len(x)
	for i := 0; i < n; i++ {
		wx := w * x[i]
		if wx == 0 {
			continue
		}
		row := a.data[i*n : i*n+n]
		row[i] += wx * x[i]
		for j := i + 1; j < n; j++ {
			v := wx * x[j]
			row[j] += v
			a.data[j*n+i] += v
		}
	}
}

// OuterAccumRows accumulates dst += Σᵢ xᵢ·yᵢᵀ over the n rows of two
// row-major buffers (x is n×dst.Rows(), y is n×dst.Cols()) — the layer-1
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
