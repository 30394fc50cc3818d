package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property-based tests on core algebraic identities, using testing/quick to
// drive random shapes and values.

type smallVec []float64

func (smallVec) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(8)
	v := make(smallVec, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 3
	}
	return reflect.ValueOf(v)
}

func TestQuickDotSymmetry(t *testing.T) {
	f := func(v smallVec) bool {
		y := make([]float64, len(v))
		for i := range y {
			y[i] = float64(i) - 1.5
		}
		return math.Abs(Dot(v, y)-Dot(y, v)) < 1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQuadFormMatchesBilinear(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(v smallVec) bool {
		n := len(v)
		a := randomSPD(rng, n)
		q := QuadForm(a, v)
		b := BilinearForm(v, a, v)
		return closeRel(q, b, 1e-9)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Blocked quadratic form: for symmetric A split at s,
// xᵀAx = xSᵀ A_SS xS + 2 xSᵀ A_SR xR + xRᵀ A_RR xR.
// This is the exact identity underpinning F-GMM (paper Eq. 7-12).
func TestQuickBlockedQuadFormIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func(v smallVec) bool {
		n := len(v)
		if n < 2 {
			return true
		}
		s := 1 + rng.Intn(n-1)
		a := randomSPD(rng, n)
		whole := QuadForm(a, v)
		xs, xr := v[:s], v[s:]
		ass := a.Block(0, 0, s, s)
		asr := a.Block(0, s, s, n-s)
		arr := a.Block(s, s, n-s, n-s)
		blocked := QuadForm(ass, xs) + 2*BilinearForm(xs, asr, xr) + QuadForm(arr, xr)
		return closeRel(whole, blocked, 1e-8)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Blocked outer product: (x xᵀ) assembled from [xS xR] blocks equals the
// whole outer product (paper Eq. 14-18).
func TestQuickBlockedOuterProductIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(v smallVec) bool {
		n := len(v)
		if n < 2 {
			return true
		}
		s := 1 + rng.Intn(n-1)
		whole := NewDense(n, n)
		OuterAccum(whole, 1, v, v)

		xs, xr := v[:s], v[s:]
		ul := NewDense(s, s)
		OuterAccum(ul, 1, xs, xs)
		ur := NewDense(s, n-s)
		OuterAccum(ur, 1, xs, xr)
		ll := NewDense(n-s, s)
		OuterAccum(ll, 1, xr, xs)
		lr := NewDense(n-s, n-s)
		OuterAccum(lr, 1, xr, xr)
		return whole.Block(0, 0, s, s).Equalish(ul, 1e-10) && whole.Block(0, s, s, n-s).Equalish(ur, 1e-10) &&
			whole.Block(s, 0, n-s, s).Equalish(ll, 1e-10) && whole.Block(s, s, n-s, n-s).Equalish(lr, 1e-10)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Blocked mat-vec: W·x = W_S·xS + W_R·xR — the identity behind F-NN's
// layer-1 forward pass (paper §VI-A1).
func TestQuickBlockedMatVecIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := func(v smallVec) bool {
		n := len(v)
		if n < 2 {
			return true
		}
		s := 1 + rng.Intn(n-1)
		nh := 1 + rng.Intn(6)
		w := randomDense(rng, nh, n)
		whole := make([]float64, nh)
		MatVec(whole, w, v)

		ws := w.Block(0, 0, nh, s)
		wr := w.Block(0, s, nh, n-s)
		part := make([]float64, nh)
		MatVec(part, ws, v[:s])
		MatVecAdd(part, wr, v[s:])
		return MaxAbsDiffVec(whole, part) < 1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(v smallVec) bool {
		n := len(v)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		MatVec(b, a, v)
		got := make([]float64, n)
		ch.SolveVec(got, b)
		return MaxAbsDiffVec(got, v) < 1e-7
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(v smallVec) bool {
		r := 1 + rng.Intn(5)
		c := 1 + rng.Intn(5)
		m := randomDense(rng, r, c)
		return m.Transpose().Transpose().Equalish(m, 0)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func closeRel(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}
}
