package core

import (
	"math"
	"math/rand"
	"testing"

	"factorml/internal/linalg"
)

// TestFillQuadCacheZeroWidthDimension pins the degenerate partition the
// incremental-maintenance path can produce: a dimension relation with no
// feature columns. Its cache must be empty-but-valid (zero-length PD,
// zero Self, a zero cross vector) and FactQuad must still match the
// monolithic quadratic form.
func TestFillQuadCacheZeroWidthDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := NewPartition([]int{2, 0, 3})
	iMat := randSPD(rng, p.D)
	bs := BlockSym(iMat, p)

	x := make([]float64, p.D)
	mu := make([]float64, p.D)
	for i := range x {
		x[i] = rng.NormFloat64()
		mu[i] = rng.NormFloat64()
	}

	var ops Ops
	caches := make([]*QuadCache, 2)
	for i := 1; i <= 2; i++ {
		caches[i-1] = &QuadCache{}
		FillQuadCache(caches[i-1], bs, i, p.Slice(x, i), mu)
	}
	if len(caches[0].PD) != 0 {
		t.Fatalf("zero-width PD has length %d", len(caches[0].PD))
	}
	if caches[0].Self != 0 {
		t.Fatalf("zero-width Self = %g, want 0", caches[0].Self)
	}
	if len(caches[0].CrossS) != 2 {
		t.Fatalf("zero-width CrossS has length %d, want dS=2", len(caches[0].CrossS))
	}
	for i, v := range caches[0].CrossS {
		if v != 0 {
			t.Fatalf("zero-width CrossS[%d] = %g, want 0", i, v)
		}
	}

	pd := make([]float64, p.D)
	linalg.VecSub(pd, x, mu)
	want := linalg.QuadForm(iMat, pd)
	pds := make([]float64, p.Dims[0])
	linalg.VecSub(pds, p.Slice(x, 0), p.Slice(mu, 0))
	got := FactQuad(bs, pds, caches, &ops)
	if d := math.Abs(got - want); d > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("FactQuad with a zero-width part = %g, monolithic = %g (diff %g)", got, want, d)
	}
}

// TestFactQuadNoDimensionCaches covers the other boundary: a partition
// with only the fact part, where FactQuad degenerates to the plain
// quadratic form over PD_S.
func TestFactQuadNoDimensionCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := NewPartition([]int{4})
	iMat := randSPD(rng, 4)
	bs := BlockSym(iMat, p)
	pds := []float64{0.5, -1, 2, 0.25}
	var ops Ops
	got := FactQuad(bs, pds, nil, &ops)
	want := linalg.QuadForm(iMat, pds)
	if got != want {
		t.Fatalf("FactQuad without caches = %g, QuadForm = %g", got, want)
	}
}
