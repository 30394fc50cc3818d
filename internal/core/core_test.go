package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"factorml/internal/linalg"
)

func randSPD(rng *rand.Rand, n int) *linalg.Dense {
	a := linalg.NewDense(n, n)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	spd := linalg.NewDense(n, n) // A·Aᵀ
	for i := range n {
		for j := range n {
			spd.Set(i, j, linalg.Dot(a.Row(i), a.Row(j)))
		}
	}
	spd.AddDiag(float64(n))
	return spd
}

func TestNewPartition(t *testing.T) {
	p := NewPartition([]int{2, 3, 1})
	if p.D != 6 || p.Parts() != 3 {
		t.Fatalf("partition = %+v", p)
	}
	if p.Offs[0] != 0 || p.Offs[1] != 2 || p.Offs[2] != 5 {
		t.Fatalf("offsets = %v", p.Offs)
	}
	x := []float64{0, 1, 2, 3, 4, 5}
	got := p.Slice(x, 1)
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("Slice = %v", got)
	}
}

func TestPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPartition(nil)
}

func TestSlicePanicsOnWidthMismatch(t *testing.T) {
	p := NewPartition([]int{1, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Slice([]float64{1, 2, 3}, 0)
}

func TestBlockSymAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPartition([]int{2, 3, 2})
	m := randSPD(rng, p.D)
	bs := BlockSym(m, p)
	for i := range bs.B {
		for j, b := range bs.B[i] {
			if r, c := b.Dims(); r != p.Dims[i] || c != p.Dims[j] {
				t.Fatalf("block(%d,%d) dims = %dx%d", i, j, r, c)
			}
			for r := 0; r < p.Dims[i]; r++ {
				for c, v := range b.Row(r) {
					if v != m.At(p.Offs[i]+r, p.Offs[j]+c) {
						t.Fatalf("block(%d,%d)[%d][%d] = %g, matrix holds %g", i, j, r, c, v, m.At(p.Offs[i]+r, p.Offs[j]+c))
					}
				}
			}
		}
	}
}

// The factorized quadratic form must equal the monolithic one for any
// partition — this is the exactness guarantee of F-GMM's E-step.
func TestFactQuadMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		parts := 2 + r.Intn(3) // S + 1..3 dimension relations
		dims := make([]int, parts)
		for i := range dims {
			dims[i] = 1 + r.Intn(4)
		}
		p := NewPartition(dims)
		iMat := randSPD(rng, p.D)
		bs := BlockSym(iMat, p)

		x := make([]float64, p.D)
		mu := make([]float64, p.D)
		for i := range x {
			x[i] = r.NormFloat64()
			mu[i] = r.NormFloat64()
		}
		// Monolithic: (x-µ)ᵀ I (x-µ).
		pd := make([]float64, p.D)
		linalg.VecSub(pd, x, mu)
		want := linalg.QuadForm(iMat, pd)

		// Factorized.
		var ops Ops
		caches := make([]*QuadCache, parts-1)
		for i := 1; i < parts; i++ {
			caches[i-1] = &QuadCache{}
			FillQuadCache(caches[i-1], bs, i, p.Slice(x, i), mu)
		}
		pds := make([]float64, dims[0])
		linalg.VecSub(pds, p.Slice(x, 0), p.Slice(mu, 0))
		got := FactQuad(bs, pds, caches, &ops)
		scale := math.Max(1, math.Abs(want))
		return math.Abs(got-want) < 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFillQuadCacheReusesBuffers(t *testing.T) {
	p := NewPartition([]int{2, 3})
	bs := BlockSym(randSPD(rand.New(rand.NewSource(5)), 5), p)
	mu := make([]float64, 5)
	c := &QuadCache{}
	FillQuadCache(c, bs, 1, []float64{1, 2, 3}, mu)
	pd0 := &c.PD[0]
	FillQuadCache(c, bs, 1, []float64{4, 5, 6}, mu)
	if &c.PD[0] != pd0 {
		t.Fatal("FillQuadCache reallocated PD despite sufficient capacity")
	}
	if c.PD[0] != 4 {
		t.Fatalf("PD not refreshed: %v", c.PD)
	}
}

func TestOpsAccounting(t *testing.T) {
	var o Ops
	o.AddQuadForm(3)
	if o.Mul != 9 || o.Adds != 8 {
		t.Fatalf("AddQuadForm: %+v", o)
	}
	o = Ops{}
	o.AddMatVec(2, 3)
	if o.Mul != 6 || o.Adds != 4 {
		t.Fatalf("AddMatVec: %+v", o)
	}
	o = Ops{}
	o.AddOuter(2, 3)
	if o.Mul != 8 || o.Adds != 6 {
		t.Fatalf("AddOuter: %+v", o)
	}
	o = Ops{}
	o.AddDot(4)
	if o.Mul != 4 || o.Adds != 3 {
		t.Fatalf("AddDot: %+v", o)
	}
	a := Ops{Mul: 5, Adds: 2}
	b := Ops{Mul: 1, Adds: 1}
	if s := a.Plus(b); s.Mul != 6 || s.Adds != 3 {
		t.Fatalf("Plus: %+v", s)
	}
}

func TestOpsMergeScaleTotal(t *testing.T) {
	a := Ops{Mul: 5, Adds: 2}
	a.Add(Ops{Mul: 3, Adds: 7})
	if a.Mul != 8 || a.Adds != 9 {
		t.Fatalf("Add: %+v", a)
	}
	if got := a.Total(); got != 17 {
		t.Fatalf("Total = %d, want 17", got)
	}
	if s := a.Scale(3); s.Mul != 24 || s.Adds != 27 {
		t.Fatalf("Scale: %+v", s)
	}
	// Add over a zero counter is the identity, and composing Add with Scale
	// matches the planner's estimate-building pattern: per-kernel charge,
	// scale by row count, merge into the running total.
	var total Ops
	var kernel Ops
	kernel.AddQuadForm(3) // 9 muls, 8 adds
	total.Add(kernel.Scale(10))
	if total.Mul != 90 || total.Adds != 80 {
		t.Fatalf("Add(Scale): %+v", total)
	}
}

func TestOpsMomentCharges(t *testing.T) {
	var o Ops
	o.AddSyrk(4) // 10 upper-triangle cells + 4 for w·x
	if o.Mul != 14 || o.Adds != 10 {
		t.Fatalf("AddSyrk: %+v", o)
	}
	o = Ops{}
	o.AddMoments(4, false) // axpy(4) + syrk(4)
	if o.Mul != 18 || o.Adds != 14 {
		t.Fatalf("AddMoments full: %+v", o)
	}
	o = Ops{}
	o.AddMoments(4, true) // axpy(4) + γ·PD² per column
	if o.Mul != 12 || o.Adds != 8 {
		t.Fatalf("AddMoments diagonal: %+v", o)
	}
}

// TestUnitsAgainstReferenceAndThemselves checks the cost table on
// statements no formula line makes: what FactQuad counts at its call sites,
// plus forming PD_S, is the E-step unit; a match of the one-part partition
// (the q = 0 case of every factorized formula, which M- and S- train on)
// costs Algorithm 1's dense row and plain backprop's example, priced here
// from Ops primitives.
func TestUnitsAgainstReferenceAndThemselves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][]int{{3, 4}, {2, 3, 2}, {3, 2, 2, 3, 1}} {
		p := NewPartition(dims)
		whole := NewPartition([]int{p.D})
		bs := BlockSym(randSPD(rng, p.D), p)
		x, mu := make([]float64, p.D), make([]float64, p.D)
		caches := make([]*QuadCache, p.Parts()-1)
		for i := range caches {
			caches[i] = &QuadCache{}
			FillQuadCache(caches[i], bs, 1+i, p.Slice(x, 1+i), mu)
		}
		var ref Ops
		ref.AddSub(dims[0])
		FactQuad(bs, p.Slice(x, 0), caches, &ref)
		if got := NewGMMUnits(p, 1, false).Score; got != ref {
			t.Errorf("dims %v: E-step unit %+v, FactQuad's call sites count %+v", dims, got, ref)
		}
		for _, diagonal := range []bool{false, true} {
			var dense Ops // per component: E-step, then the moments from its PD
			if diagonal {
				dense.AddDiagQuad(p.D)
			} else {
				dense.AddSub(p.D)
				dense.AddQuadForm(p.D)
			}
			dense.AddMoments(p.D, diagonal)
			u := NewGMMUnits(whole, 4, diagonal)
			if match := u.Match; match != dense.Scale(4) || len(u.Fill) != 1 {
				t.Errorf("dims %v diagonal=%v: one-part match %+v, dense row %+v", dims, diagonal, match, dense.Scale(4))
			}
		}
		sizes := []int{p.D, 6, 5, 1}
		var dense Ops // layer 1 and its bias, the upper layers forward and back, ΔᵀX
		dense.AddMatVec(6, p.D)
		dense.Adds += 6
		dense.AddMatVec(5, 6)
		dense.Adds += 5
		dense.AddMatVec(1, 5)
		dense.Adds += 1 + 1 // bias, o − y
		dense.AddOuterPlain(1, 5)
		dense.Adds++
		dense.AddMatVec(5, 1)
		dense.Mul += 5
		dense.AddOuterPlain(5, 6)
		dense.Adds += 5
		dense.AddMatVec(6, 5)
		dense.Mul += 6
		dense.Adds += 6 // input-layer bias gradient
		dense.AddOuterPlain(6, p.D)
		if match := NewNNUnits(whole, sizes).Match; match != dense {
			t.Errorf("dims %v: one-part match %+v, dense example %+v", dims, match, dense)
		}
	}
}

// TestLayer2SharingCostsMore holds the paper's §VI-A2 result that sharing
// layer 2 across relations "will always result in increased costs". The
// scheme caches t3 = W1·t per dimension tuple and builds a match's layer-2
// pre-activation as W1·T1 + Σ t3 + (W1·b0 + b1), T1 the fact part's W_S·x_S,
// where plain F-NN computes W1·f(a⁰) + b1. Priced from Ops primitives
// against NewNNUnits over a grid of shapes and event counts: sharing saves
// no multiply per match and costs strictly more in total.
func TestLayer2SharingCostsMore(t *testing.T) {
	for _, dims := range [][]int{{3, 4}, {2, 3, 2}, {3, 2, 2, 3, 1}, {1, 9, 1}} {
		p := NewPartition(dims)
		q := int64(p.Parts() - 1)
		for _, hidden := range [][]int{{6, 5}, {1, 1}, {4, 8, 3}, {12, 2}} {
			sizes := append(append([]int{p.D}, hidden...), 1)
			nh0, nh1 := sizes[1], sizes[2]
			u := NewNNUnits(p, sizes)

			// Per match: the same layer-2 mat-vec, q more adds.
			var plainL2, sharedL2 Ops
			plainL2.AddMatVec(nh1, nh0)           // W1·f(a⁰)
			plainL2.Adds += int64(nh1)            // + b1
			sharedL2.AddMatVec(nh1, nh0)          // W1·T1
			sharedL2.Adds += (q + 1) * int64(nh1) // + Σ t3 + the shared bias
			if u.Match.Mul < plainL2.Mul {
				t.Fatalf("dims %v sizes %v: match unit %+v holds no layer-2 mat-vec", dims, sizes, u.Match)
			}
			match := Ops{Mul: u.Match.Mul - plainL2.Mul + sharedL2.Mul, Adds: u.Match.Adds - plainL2.Adds + sharedL2.Adds}
			if match.Mul < u.Match.Mul {
				t.Errorf("dims %v sizes %v: sharing saves %d multiplies per match", dims, sizes, u.Match.Mul-match.Mul)
			}
			// Per dimension tuple: t3 = W1·t. Per refill: W1·b0 + b1.
			var perTuple, refill Ops
			perTuple.AddMatVec(nh1, nh0)
			refill.AddMatVec(nh1, nh0)
			refill.Adds += int64(nh1)

			for _, n := range []int64{1, 1000} {
				for _, refills := range []int64{1, 7} {
					plain, shared := u.Match.Scale(n), match.Scale(n).Plus(refill.Scale(refills))
					for i := 1; i < p.Parts(); i++ {
						m := n / int64(i) // at most one tuple per match
						plain.Add(u.Fill[i].Scale(m))
						shared.Add(u.Fill[i].Plus(perTuple).Scale(m))
					}
					if shared.Mul <= plain.Mul || shared.Total() <= plain.Total() {
						t.Errorf("dims %v sizes %v n=%d refills=%d: sharing %+v, plain %+v",
							dims, sizes, n, refills, shared, plain)
					}
				}
			}
		}
	}
}
