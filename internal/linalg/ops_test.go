package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	MatVec(dst, a, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
}

func TestMatVecAdd(t *testing.T) {
	a := Eye(2)
	dst := []float64{10, 20}
	MatVecAdd(dst, a, []float64{1, 2})
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("MatVecAdd = %v, want [11 22]", dst)
	}
}

func TestVecMat(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 1}
	dst := make([]float64, 3)
	VecMat(dst, x, a)
	want := []float64{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("VecMat = %v, want %v", dst, want)
		}
	}
}

func TestMatMul(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := NewMatMul(a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !c.Equalish(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 4, 4)
	c := NewMatMul(a, Eye(4))
	if !c.Equalish(a, 1e-12) {
		t.Fatal("A·I != A")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer expectPanic(t, "matmul mismatch")
	NewMatMul(NewDense(2, 3), NewDense(2, 3))
}

func TestOuterAccum(t *testing.T) {
	dst := NewDense(2, 3)
	OuterAccum(dst, 2, []float64{1, 2}, []float64{3, 4, 5})
	want := NewDenseData(2, 3, []float64{6, 8, 10, 12, 16, 20})
	if !dst.Equalish(want, 1e-12) {
		t.Fatalf("OuterAccum = %v, want %v", dst, want)
	}
	// Accumulation adds on top.
	OuterAccum(dst, -2, []float64{1, 2}, []float64{3, 4, 5})
	if !dst.Equalish(NewDense(2, 3), 1e-12) {
		t.Fatalf("OuterAccum accumulate = %v, want zero", dst)
	}
}

func TestQuadForm(t *testing.T) {
	a := NewDenseData(2, 2, []float64{2, 1, 1, 3})
	x := []float64{1, -1}
	// xᵀAx = 2 - 1 - 1 + 3 = 3
	if got := QuadForm(a, x); math.Abs(got-3) > 1e-12 {
		t.Fatalf("QuadForm = %v, want 3", got)
	}
}

func TestBilinearForm(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 1}
	y := []float64{1, 0, 1}
	// xᵀAy = (1+3) + (4+6) = 14
	if got := BilinearForm(x, a, y); math.Abs(got-14) > 1e-12 {
		t.Fatalf("BilinearForm = %v, want 14", got)
	}
}

func TestDotAxpyNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestVecAddSubScaleZero(t *testing.T) {
	dst := make([]float64, 2)
	VecAdd(dst, []float64{1, 2}, []float64{3, 4})
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("VecAdd = %v", dst)
	}
	VecSub(dst, []float64{1, 2}, []float64{3, 4})
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("VecSub = %v", dst)
	}
	VecScale(dst, 3, []float64{1, 2})
	if dst[0] != 3 || dst[1] != 6 {
		t.Fatalf("VecScale = %v", dst)
	}
	VecZero(dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("VecZero = %v", dst)
	}
}

func TestLogSumExp(t *testing.T) {
	x := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(x); math.Abs(got-math.Log(6)) > 1e-12 {
		t.Fatalf("LogSumExp = %v, want log 6", got)
	}
	// Stability: huge values must not overflow.
	if got := LogSumExp([]float64{1000, 1000}); math.Abs(got-(1000+math.Log(2))) > 1e-9 {
		t.Fatalf("LogSumExp stability: got %v", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(nil) should be -Inf")
	}
	if !math.IsInf(LogSumExp([]float64{math.Inf(-1)}), -1) {
		t.Fatal("LogSumExp(-Inf) should be -Inf")
	}
}

func TestMaxAbsDiffVec(t *testing.T) {
	if got := MaxAbsDiffVec([]float64{1, 5}, []float64{1, 2}); got != 3 {
		t.Fatalf("MaxAbsDiffVec = %v, want 3", got)
	}
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestMatVecRange(t *testing.T) {
	a := NewDenseData(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	dst := make([]float64, 2)
	MatVecRange(dst, a, 1, []float64{1, -1}) // columns 1..2
	if dst[0] != 2-3 || dst[1] != 6-7 {
		t.Fatalf("MatVecRange = %v", dst)
	}
	MatVecRangeAdd(dst, a, 3, []float64{2}) // column 3
	if dst[0] != -1+8 || dst[1] != -1+16 {
		t.Fatalf("MatVecRangeAdd = %v", dst)
	}
}

func TestMatVecRangeEqualsBlockMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		r := 1 + rng.Intn(6)
		c := 2 + rng.Intn(8)
		a := randomDense(rng, r, c)
		j0 := rng.Intn(c - 1)
		w := 1 + rng.Intn(c-j0)
		x := make([]float64, w)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, r)
		MatVec(want, a.Block(0, j0, r, w), x)
		got := make([]float64, r)
		MatVecRange(got, a, j0, x)
		if MaxAbsDiffVec(got, want) > 1e-12 {
			t.Fatalf("trial %d: MatVecRange differs from block MatVec", trial)
		}
	}
}

func TestMatVecRangeBoundsPanic(t *testing.T) {
	defer expectPanic(t, "matvecrange out of bounds")
	MatVecRange(make([]float64, 2), NewDense(2, 3), 2, []float64{1, 1})
}

// OuterAccumRows must equal the rank-1 sequence it replaces bit for bit:
// same products, same per-element order, same zero-skip.
func TestOuterAccumRowsMatchesRank1Sequence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inf := math.Inf(1)
	for _, sh := range []struct{ n, r, c int }{
		{0, 4, 4}, {1, 3, 3}, {2, 1, 1}, {511, 7, 5}, {512, 50, 28}, {1024, 51, 29}, {33, 5, 0},
	} {
		for _, zeroEvery := range []int{0, 2, 1} { // no zeros, half the δ rows zero, all zero
			x := make([]float64, sh.n*sh.r)
			y := make([]float64, sh.n*sh.c)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range y {
				y[i] = rng.NormFloat64()
			}
			for i := 0; zeroEvery > 0 && i < sh.n; i += zeroEvery {
				row := x[i*sh.r : (i+1)*sh.r]
				for h := range row {
					row[h] = 0
					if h%2 == 1 {
						row[h] = math.Copysign(0, -1)
					}
				}
				// A zero δ row skips its products, so a non-finite
				// feature under it must not reach dst.
				if sh.c > 0 {
					y[i*sh.c] = inf
					y[i*sh.c+sh.c-1] = math.NaN()
				}
			}
			want := NewDense(sh.r, sh.c)
			got := NewDense(sh.r, sh.c)
			for i := range want.data {
				want.data[i] = rng.NormFloat64()
				got.data[i] = want.data[i]
			}
			for i := 0; i < sh.n; i++ {
				OuterAccum(want, 1, x[i*sh.r:(i+1)*sh.r], y[i*sh.c:(i+1)*sh.c])
			}
			OuterAccumRows(got, x, y, sh.n)
			for i, w := range want.data {
				if g := got.data[i]; g != w || math.Signbit(g) != math.Signbit(w) {
					t.Fatalf("n=%d r=%d c=%d zeroEvery=%d: element %d = %v, rank-1 sequence gives %v",
						sh.n, sh.r, sh.c, zeroEvery, i, g, w)
				}
			}
		}
	}
}

func TestOuterAccumRowsShortBufferPanics(t *testing.T) {
	defer expectPanic(t, "OuterAccumRows with short buffers")
	OuterAccumRows(NewDense(2, 3), make([]float64, 4), make([]float64, 5), 2)
}

// BenchmarkOuterAccumRows compares the chunk kernel with the rank-1
// sequence on the default hidden width and a 28-wide joined row.
func BenchmarkOuterAccumRows(b *testing.B) {
	const n, r, c = 512, 50, 28
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, n*r)
	y := make([]float64, n*c)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	dst := NewDense(r, c)
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			OuterAccumRows(dst, x, y, n)
		}
	})
	b.Run("rank1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < n; k++ {
				OuterAccum(dst, 1, x[k*r:(k+1)*r], y[k*c:(k+1)*c])
			}
		}
	})
}

// The MatVec family works four rows at a time; every output must still be
// the plain left-to-right row sum, bit for bit, for row counts around the
// block size, column sub-ranges and both the assigning and adding forms.
func TestMatVecFamilyMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for rows := 0; rows <= 9; rows++ {
		for _, sh := range []struct{ cols, j0, n int }{{1, 0, 1}, {7, 0, 7}, {7, 2, 3}, {28, 12, 16}, {5, 5, 0}} {
			a := NewDense(rows, sh.cols)
			for i := range a.data {
				a.data[i] = rng.NormFloat64()
			}
			x := make([]float64, sh.n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			seed := make([]float64, rows)
			want := make([]float64, rows)
			for i := range want {
				seed[i] = rng.NormFloat64()
				var s float64
				for j, v := range x {
					s += a.At(i, sh.j0+j) * v
				}
				want[i] = s
			}
			got := append([]float64{}, seed...)
			MatVecRange(got, a, sh.j0, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("MatVecRange %dx%d[%d:+%d] row %d = %v, want %v", rows, sh.cols, sh.j0, sh.n, i, got[i], want[i])
				}
			}
			got = append(got[:0], seed...)
			MatVecRangeAdd(got, a, sh.j0, x)
			for i := range want {
				if w := seed[i] + want[i]; got[i] != w {
					t.Fatalf("MatVecRangeAdd %dx%d[%d:+%d] row %d = %v, want %v", rows, sh.cols, sh.j0, sh.n, i, got[i], w)
				}
			}
			if sh.j0 == 0 && sh.n == sh.cols {
				got = append(got[:0], seed...)
				MatVec(got, a, x)
				add := append([]float64{}, seed...)
				MatVecAdd(add, a, x)
				for i := range want {
					if got[i] != want[i] || add[i] != seed[i]+want[i] {
						t.Fatalf("MatVec/MatVecAdd %dx%d row %d = %v / %v, want %v / %v", rows, sh.cols, i, got[i], add[i], want[i], seed[i]+want[i])
					}
				}
			}
		}
	}
}

func BenchmarkMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := NewDense(50, 28)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	x := make([]float64, 28)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, 50)
	b.Run("50x28", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatVec(dst, a, x)
		}
	})
	b.Run("range_add_50x12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatVecRangeAdd(dst, a, 0, x[:12])
		}
	})
}

// SyrkAccum writes the upper triangle only, and every element it writes is
// the one OuterAccum(A, w, x, x) writes there, bit for bit.
func TestSyrkAccumIsUpperTriangleOfOuterAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 5, 16} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, want := NewDense(n, n), NewDense(n, n)
		for rep := 0; rep < 3; rep++ {
			w := rng.Float64()
			SyrkAccum(got, w, x)
			OuterAccum(want, w, x, x)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch {
				case j >= i && got.At(i, j) != want.At(i, j):
					t.Fatalf("n=%d: [%d][%d] = %v, OuterAccum has %v", n, i, j, got.At(i, j), want.At(i, j))
				case j < i && got.At(i, j) != 0:
					t.Fatalf("n=%d: [%d][%d] = %v below the diagonal, want untouched", n, i, j, got.At(i, j))
				}
			}
		}
	}
}

// The rows kernel takes four rows at a time out of strided buffers; every
// element must still be the rank-1 sequence's, bit for bit, for row counts
// around the block size.
func TestSyrkAccumRowsMatchesRank1Sequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const d, ws, xs = 5, 3, 17 // weights every 3rd value, rows every 17th
	for n := 0; n <= 11; n++ {
		w := make([]float64, n*ws+1)
		x := make([]float64, n*xs+d)
		for i := range w {
			w[i] = rng.Float64()
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, want := NewDense(d, d), NewDense(d, d)
		SyrkAccumRows(got, w[1:], ws, x[2:], xs, n)
		for r := 0; r < n; r++ {
			SyrkAccum(want, w[1+r*ws], x[2+r*xs:2+r*xs+d])
		}
		if diff := got.MaxAbsDiff(want); diff != 0 {
			t.Fatalf("n=%d: rows kernel differs from the rank-1 sequence by %g", n, diff)
		}
	}
}

func TestSyrkAccumRowsShortBufferPanics(t *testing.T) {
	defer expectPanic(t, "SyrkAccumRows with a short row buffer")
	SyrkAccumRows(NewDense(3, 3), make([]float64, 2), 1, make([]float64, 5), 3, 2)
}

func TestSoftmaxLSE(t *testing.T) {
	x := []float64{-1050, -1049.5, -1053, -1e9}
	dst := make([]float64, len(x))
	if got, want := SoftmaxLSE(dst, x), LogSumExp(x); got != want {
		t.Fatalf("SoftmaxLSE = %v, LogSumExp = %v, want the same bits", got, want)
	}
	sum := 0.0
	for i, v := range dst {
		if want := math.Exp(x[i] - LogSumExp(x)); math.Abs(v-want) > 1e-15 {
			t.Fatalf("dst[%d] = %v, want %v", i, v, want)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-15 {
		t.Fatalf("responsibilities sum to %v", sum)
	}
	// No component claims the point: uniform, and −Inf like LogSumExp.
	none := []float64{math.Inf(-1), math.Inf(-1)}
	if got := SoftmaxLSE(dst[:2], none); !math.IsInf(got, -1) || dst[0] != 0.5 || dst[1] != 0.5 {
		t.Fatalf("all −Inf: lse %v, dst %v", got, dst[:2])
	}
	if got := SoftmaxLSE(nil, nil); !math.IsInf(got, -1) {
		t.Fatalf("empty input: %v", got)
	}
}
