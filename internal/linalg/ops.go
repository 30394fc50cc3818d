package linalg

import "fmt"

// MatVec computes dst = A·x. dst must have length A.Rows() and must not
// alias x.
func MatVec(dst []float64, a *Dense, x []float64) {
	if len(x) != a.cols || len(dst) != a.rows {
		panic(fmt.Sprintf("linalg: matvec dimension mismatch A=%dx%d x=%d dst=%d", a.rows, a.cols, len(x), len(dst)))
	}
	matVec(dst, a, 0, x, false)
}

// MatVecAdd computes dst += A·x.
func MatVecAdd(dst []float64, a *Dense, x []float64) {
	if len(x) != a.cols || len(dst) != a.rows {
		panic(fmt.Sprintf("linalg: matvecadd dimension mismatch A=%dx%d x=%d dst=%d", a.rows, a.cols, len(x), len(dst)))
	}
	matVec(dst, a, 0, x, true)
}

// MatVecRange computes dst = A[:, j0:j0+len(x)]·x — a matrix-vector product
// against a contiguous column range of A (used by the factorized NN layer-1
// forward pass, where the weight matrix is column-partitioned by relation).
func MatVecRange(dst []float64, a *Dense, j0 int, x []float64) {
	if j0 < 0 || j0+len(x) > a.cols || len(dst) != a.rows {
		panic(fmt.Sprintf("linalg: matvecrange A=%dx%d j0=%d x=%d dst=%d", a.rows, a.cols, j0, len(x), len(dst)))
	}
	matVec(dst, a, j0, x, false)
}

// MatVecRangeAdd computes dst += A[:, j0:j0+len(x)]·x.
func MatVecRangeAdd(dst []float64, a *Dense, j0 int, x []float64) {
	if j0 < 0 || j0+len(x) > a.cols || len(dst) != a.rows {
		panic(fmt.Sprintf("linalg: matvecrangeadd A=%dx%d j0=%d x=%d dst=%d", a.rows, a.cols, j0, len(x), len(dst)))
	}
	matVec(dst, a, j0, x, true)
}

// matVec is the kernel behind the MatVec family: dst (+)= A[:, j0:j0+len(x)]·x
// with the shapes already checked. Four rows of A go through x together, so
// x is loaded once per four products and four independent sums are in
// flight instead of one add waiting on the last; every dst element is still
// its own left-to-right sum over x, bit-identical to a row at a time.
func matVec(dst []float64, a *Dense, j0 int, x []float64, add bool) {
	n, stride := len(x), a.cols
	i := 0
	for ; i+4 <= a.rows; i += 4 {
		at := i*stride + j0
		r0 := a.data[at:][:n]
		r1 := a.data[at+stride:][:n]
		r2 := a.data[at+2*stride:][:n]
		r3 := a.data[at+3*stride:][:n]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		if add {
			s0, s1, s2, s3 = dst[i]+s0, dst[i+1]+s1, dst[i+2]+s2, dst[i+3]+s3
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < a.rows; i++ {
		s := DotN(a.data[i*stride+j0:], x, n)
		if add {
			s += dst[i]
		}
		dst[i] = s
	}
}

// VecMat computes dst = xᵀ·A (a row vector as long as A has columns).
func VecMat(dst []float64, x []float64, a *Dense) {
	if len(x) != a.rows || len(dst) != a.cols {
		panic(fmt.Sprintf("linalg: vecmat dimension mismatch x=%d A=%dx%d dst=%d", len(x), a.rows, a.cols, len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			dst[j] += xi * v
		}
	}
}

// MatMul computes C = A·B into dst, which must be rows(A)×cols(B) and must
// not alias a or b.
func MatMul(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: matmul inner dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("linalg: matmul destination %dx%d for %dx%d result", dst.rows, dst.cols, a.rows, b.cols))
	}
	dst.Zero()
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		crow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// NewMatMul allocates and returns A·B.
func NewMatMul(a, b *Dense) *Dense {
	dst := NewDense(a.rows, b.cols)
	MatMul(dst, a, b)
	return dst
}

// OuterAccum accumulates dst += w · x·yᵀ. dst must be len(x)×len(y).
func OuterAccum(dst *Dense, w float64, x, y []float64) {
	if dst.rows != len(x) || dst.cols != len(y) {
		panic(fmt.Sprintf("linalg: outer dimension mismatch dst=%dx%d x=%d y=%d", dst.rows, dst.cols, len(x), len(y)))
	}
	for i, xi := range x {
		wx := w * xi
		if wx == 0 {
			continue
		}
		row := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j, yj := range y {
			row[j] += wx * yj
		}
	}
}

// OuterAccumAt accumulates x·yᵀ into the column range j0 … j0+len(y) of
// dst, which must have len(x) rows. A zero x[i] skips its row of products,
// as OuterAccum does.
func OuterAccumAt(dst *Dense, j0 int, x, y []float64) {
	if dst.rows != len(x) || j0 < 0 || j0+len(y) > dst.cols {
		panic(fmt.Sprintf("linalg: outer-at dimension mismatch dst=%dx%d j0=%d x=%d y=%d", dst.rows, dst.cols, j0, len(x), len(y)))
	}
	for i, xi := range x {
		if xi != 0 {
			AxpyN(xi, y, dst.data[i*dst.cols+j0:], len(y))
		}
	}
}

// QuadForm returns xᵀ·A·x for square A.
func QuadForm(a *Dense, x []float64) float64 {
	if a.rows != a.cols || len(x) != a.rows {
		panic(fmt.Sprintf("linalg: quadform dimension mismatch A=%dx%d x=%d", a.rows, a.cols, len(x)))
	}
	var s float64
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		var r float64
		for j, v := range row {
			r += v * x[j]
		}
		s += xi * r
	}
	return s
}

// BilinearForm returns xᵀ·A·y for an r×c matrix A with len(x)==r, len(y)==c.
func BilinearForm(x []float64, a *Dense, y []float64) float64 {
	if len(x) != a.rows || len(y) != a.cols {
		panic(fmt.Sprintf("linalg: bilinear dimension mismatch x=%d A=%dx%d y=%d", len(x), a.rows, a.cols, len(y)))
	}
	var s float64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		var r float64
		for j, v := range row {
			r += v * y[j]
		}
		s += xi * r
	}
	return s
}
