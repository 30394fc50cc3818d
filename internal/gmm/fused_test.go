package gmm

import (
	"math"
	"math/rand"
	"testing"

	"factorml/internal/core"
	"factorml/internal/linalg"
)

// fusedTestModel builds a well-conditioned random K-component mixture of
// dimension D.
func fusedTestModel(t *testing.T, rng *rand.Rand, K, D int) *Model {
	t.Helper()
	m := &Model{K: K, D: D}
	total := 0.0
	for k := 0; k < K; k++ {
		w := rng.Float64() + 0.1
		m.Weights = append(m.Weights, w)
		total += w
		mean := make([]float64, D)
		for i := range mean {
			mean[i] = rng.NormFloat64()
		}
		m.Means = append(m.Means, mean)
		cov := linalg.NewDense(D, D)
		a := linalg.NewDense(D, D)
		for i := range a.Data() {
			a.Data()[i] = 0.3 * rng.NormFloat64()
		}
		for i := 0; i < D; i++ {
			for j := 0; j < D; j++ {
				s := 0.0
				for l := 0; l < D; l++ {
					s += a.At(i, l) * a.At(j, l)
				}
				cov.Set(i, j, s)
			}
			cov.Set(i, i, cov.At(i, i)+0.5)
		}
		m.Covs = append(m.Covs, cov)
	}
	for k := range m.Weights {
		m.Weights[k] /= total
	}
	return m
}

// TestFusedKernelMatchesReference pins the fused all-components kernel
// against the unfused per-term reference on one-dimension and multi-way
// partitions: log-densities agree to rounding (the fused kernel's blocked
// multi-accumulator sums are a different — but fixed — summation order),
// the cost model's E-step unit (core.GMMUnits.Score, what the trainer
// charges per match scored) equals what the unfused call sites count, and
// repeated fused evaluations are
// bit-identical (the determinism every worker-sweep and
// incremental-vs-full harness rests on). A diagonal model is one more
// input: its kernel (scoreRowDiag over PD + Self caches) against the same
// unfused loop over the blocked diagonal inverse, whose caches the
// reference fills itself.
func TestFusedKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][]int{
		{3, 4},          // S ⋈ R1
		{2, 3, 2},       // S ⋈ R1 ⋈ R2 (one dim-dim pair)
		{3, 2, 2, 3, 1}, // four dimension parts (six pairs)
	}
	for i, dims := range append(shapes, shapes...) {
		p := core.NewPartition(dims)
		m := fusedTestModel(t, rng, 4, p.D)
		if i >= len(shapes) {
			m.restrictToDiagonal()
		}
		s, err := m.NewScorer(p)
		if err != nil {
			t.Fatalf("NewScorer: %v", err)
		}
		scF := s.NewScratch()
		scU := s.NewScratch()
		q := p.Parts() - 1
		caches := make([][]core.QuadCache, q)
		ref := make([][]core.QuadCache, q) // the unfused loop's: CrossS and all
		for j := range caches {
			caches[j] = make([]core.QuadCache, m.K)
			ref[j] = make([]core.QuadCache, m.K)
		}
		for trial := 0; trial < 50; trial++ {
			// Random dimension tuples (occasionally equal to a component
			// mean slice, to drive PD entries to exact zero).
			var fill core.Ops
			for j := range caches {
				xr := make([]float64, p.Dims[1+j])
				for i := range xr {
					xr[i] = rng.NormFloat64()
				}
				if trial%7 == 0 {
					copy(xr, p.Slice(m.Means[trial%m.K], 1+j))
				}
				s.FillDimCaches(caches[j], 1+j, xr, &fill)
				for c := range ref[j] {
					core.FillQuadCache(&ref[j][c], s.states[c].blocked, 1+j, xr, m.Means[c])
				}
				if m.Diagonal && len(caches[j][0].CrossS) != 0 {
					t.Fatalf("dims %v: a diagonal cache carries a CrossS", dims)
				}
			}
			xs := make([]float64, p.Dims[0])
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			if trial%5 == 0 {
				xs[0] = m.Means[trial%m.K][0] // zero PD entry in the fact part
			}
			s.scoreComponents(xs, caches, scF)
			s.scoreComponentsUnfused(xs, ref, scU)
			for c := 0; c < m.K; c++ {
				f, u := scF.logp[c], scU.logp[c]
				if d := math.Abs(f - u); d > 1e-12*math.Max(1, math.Abs(u)) {
					t.Fatalf("dims %v trial %d comp %d: fused %v vs unfused %v (diff %g)",
						dims, trial, c, f, u, d)
				}
			}
			if unit := core.NewGMMUnits(p, m.K, false).Score; !m.Diagonal && unit != scU.Ops {
				t.Fatalf("dims %v trial %d: E-step unit %+v != unfused call-site ops %+v",
					dims, trial, unit, scU.Ops)
			}
			// Re-evaluating with the fused kernel must reproduce the bits.
			first := append([]float64(nil), scF.logp...)
			s.scoreComponents(xs, caches, scF)
			for c := 0; c < m.K; c++ {
				if math.Float64bits(first[c]) != math.Float64bits(scF.logp[c]) {
					t.Fatalf("dims %v trial %d comp %d: fused kernel not deterministic", dims, trial, c)
				}
			}
			scU.Ops = core.Ops{}
		}
	}
}
