package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSPD returns a random symmetric positive definite n×n matrix.
func randomSPD(rng *rand.Rand, n int) *Dense {
	a := randomDense(rng, n, n)
	spd := mul(a, transpose(a))
	spd.AddDiag(float64(n)) // well-conditioned
	return spd
}

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 8, 17} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		llt := mul(ch.l, transpose(ch.l))
		if llt.MaxAbsDiff(a) > 1e-9 {
			t.Fatalf("n=%d: L·Lᵀ differs from A by %v", n, llt.MaxAbsDiff(a))
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	_, err := NewCholesky(a)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyNaN(t *testing.T) {
	a := NewDenseData(2, 2, []float64{math.NaN(), 0, 0, 1})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected error on NaN input")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 6} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		MatVec(b, a, want)
		got := make([]float64, n)
		ch.SolveVec(got, b)
		if MaxAbsDiffVec(got, want) > 1e-9 {
			t.Fatalf("n=%d: solve error %v", n, MaxAbsDiffVec(got, want))
		}
	}
}

func TestCholeskySolveInPlace(t *testing.T) {
	a := NewDenseData(2, 2, []float64{4, 0, 0, 9})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{8, 27}
	ch.SolveVec(b, b) // aliased
	if math.Abs(b[0]-2) > 1e-12 || math.Abs(b[1]-3) > 1e-12 {
		t.Fatalf("in-place solve = %v, want [2 3]", b)
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 4, 9} {
		a := randomSPD(rng, n)
		inv, logDet, err := SPDInverse(a)
		if err != nil {
			t.Fatal(err)
		}
		prod := mul(a, inv)
		if prod.MaxAbsDiff(eye(n)) > 1e-8 {
			t.Fatalf("n=%d: A·A⁻¹ differs from I by %v", n, prod.MaxAbsDiff(eye(n)))
		}
		// Cross-check log-det against the product of diagonal entries of L.
		ch, _ := NewCholesky(a)
		if math.Abs(logDet-ch.LogDet()) > 1e-12 {
			t.Fatalf("logdet mismatch")
		}
	}
}

func TestLogDetDiagonal(t *testing.T) {
	a := Diag([]float64{2, 3, 4})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(24)
	if math.Abs(ch.LogDet()-want) > 1e-12 {
		t.Fatalf("LogDet = %v, want %v", ch.LogDet(), want)
	}
}

func TestCholeskyNonSquarePanics(t *testing.T) {
	defer expectPanic(t, "non-square cholesky")
	NewCholesky(NewDense(2, 3)) //nolint:errcheck
}

func TestInverseSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomSPD(rng, 6)
	inv, _, err := SPDInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if inv.MaxAbsDiff(transpose(inv)) > 1e-12 {
		t.Fatal("inverse of SPD matrix must be symmetric")
	}
}
