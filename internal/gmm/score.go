package gmm

import (
	"fmt"

	"factorml/internal/core"
	"factorml/internal/linalg"
)

// Scorer evaluates a trained mixture over normalized fact tuples — it is
// the E-step (Eq. 7-12/19-21) of every trainer, the serving engine and the
// streaming refresh alike, for full and diagonal models. Over the one-part
// partition (Model.denseScorer) a joined row is a fact tuple with no
// dimension caches; the M-/S- E-step and Model.LogProb score that way. The
// per-component inverse covariances are factorized once at construction,
// and the per-dimension-tuple quadratic-form contributions (core.QuadCache)
// are computed by FillDimCaches — once per distinct dimension tuple — and
// reused by Score for every matching fact tuple. All methods except
// construction are safe for concurrent use; the serving engine shares one
// Scorer across its worker pool.
type Scorer struct {
	m      *Model
	p      core.Partition
	states []compState
	hot    *hotState
	// score is hot.scoreRow, or hot.scoreRowDiag for a diagonal model.
	score func(xs []float64, caches [][]core.QuadCache, allPDS, logp []float64)
	units core.GMMUnits
}

// NewScorer precomputes the blocked inverse covariances for scoring over
// the relation partition p (p's total width must equal the model dimension;
// part 0 is the fact relation).
func (m *Model) NewScorer(p core.Partition) (*Scorer, error) {
	if p.D != m.D {
		return nil, fmt.Errorf("gmm: partition width %d does not match model dimension %d", p.D, m.D)
	}
	states, err := m.precompute(p)
	if err != nil {
		return nil, err
	}
	s := &Scorer{m: m, p: p, states: states, hot: buildHot(m, p, states), units: core.NewGMMUnits(p, m.K, m.Diagonal)}
	s.score = s.hot.scoreRow
	if m.Diagonal {
		s.score = s.hot.scoreRowDiag
	}
	return s, nil
}

// K returns the number of mixture components (the length FillDimCaches
// expects for its destination slice).
func (s *Scorer) K() int { return s.m.K }

// FillDimCaches computes the K per-component quadratic-form caches of
// dimension part i (i ≥ 1) for a dimension tuple with features xr.
// dst must have length K. The result is a pure function of (model, part,
// xr) — cache it per dimension tuple and share it across fact tuples. A
// non-nil ops is charged the part's fill unit.
func (s *Scorer) FillDimCaches(dst []core.QuadCache, part int, xr []float64, ops *core.Ops) {
	if len(dst) != s.m.K {
		panic(fmt.Sprintf("gmm: dim-cache slice length %d, want K=%d", len(dst), s.m.K))
	}
	for c := range dst {
		if s.m.Diagonal {
			fillDiagCache(&dst[c], xr, s.p.Slice(s.m.Means[c], part), s.p.Slice(s.states[c].invVar, part))
		} else {
			core.FillQuadCache(&dst[c], s.states[c].blocked, part, xr, s.m.Means[c])
		}
	}
	if ops != nil {
		ops.Add(s.units.Fill[part])
	}
}

// ScoreScratch carries the per-goroutine buffers of Score.
type ScoreScratch struct {
	pds   []float64
	logp  []float64
	cptrs []*core.QuadCache
	// Ops is what the unfused reference has charged term by term through
	// this scratch — the count core.GMMUnits.Score is checked against. The
	// fused kernel behind Score and Responsibilities counts nothing.
	Ops core.Ops
}

// NewScratch allocates scratch sized for this scorer.
func (s *Scorer) NewScratch() *ScoreScratch {
	return &ScoreScratch{
		pds:   make([]float64, s.m.K*s.p.Dims[0]),
		logp:  make([]float64, s.m.K),
		cptrs: make([]*core.QuadCache, s.p.Parts()-1),
	}
}

// scoreComponents fills sc.logp with every component's factorized
// log-density term for one normalized fact tuple. Score and
// Responsibilities both evaluate through this single loop, so the serving
// path and the incremental-maintenance E-step stay arithmetically
// identical by construction — the bit-identity their tests pin. Since the
// raw-speed pass it is the fused kernel (see fused.go), nothing else: a
// fixed, deterministic evaluation whose blocked multi-accumulator sums
// differ from the original per-term loop only in summation order (≤1e-12
// relative, pinned by TestFusedKernelMatchesReference);
// scoreComponentsUnfused keeps the original loop as the benchmark
// baseline and reference.
func (s *Scorer) scoreComponents(xs []float64, caches [][]core.QuadCache, sc *ScoreScratch) {
	if len(caches) != s.p.Parts()-1 {
		panic(fmt.Sprintf("gmm: %d dimension caches, partition has %d dimension parts", len(caches), s.p.Parts()-1))
	}
	s.score(xs, caches, sc.pds, sc.logp)
}

// scoreComponentsUnfused is the pre-fusion reference kernel: one call per
// term through compState/FactQuad. TestFusedKernelMatchesReference pins
// scoreComponents against it, and the benchmark harness times the two side
// by side (EStepBenchHooks).
func (s *Scorer) scoreComponentsUnfused(xs []float64, caches [][]core.QuadCache, sc *ScoreScratch) {
	if len(caches) != s.p.Parts()-1 {
		panic(fmt.Sprintf("gmm: %d dimension caches, partition has %d dimension parts", len(caches), s.p.Parts()-1))
	}
	pds := sc.pds[:s.p.Dims[0]]
	for c := 0; c < s.m.K; c++ {
		linalg.VecSub(pds, xs, s.p.Slice(s.m.Means[c], 0))
		sc.Ops.AddSub(len(pds))
		for j := range caches {
			sc.cptrs[j] = &caches[j][c]
		}
		qv := core.FactQuad(s.states[c].blocked, pds, sc.cptrs, &sc.Ops)
		sc.logp[c] = s.states[c].logW + s.states[c].logNorm - 0.5*qv
	}
}

// Score computes ln p(x) and the most responsible component for one
// normalized fact tuple: xs is the fact feature sub-vector (part 0),
// caches[j] holds the K per-component caches of dimension part j+1 (from
// FillDimCaches). The floating-point evaluation order is fixed, so the
// result is bit-identical regardless of worker count or cache state, and
// exact versus Model.LogProb/Model.Predict over the assembled joined
// vector up to summation order.
func (s *Scorer) Score(xs []float64, caches [][]core.QuadCache, sc *ScoreScratch) (logProb float64, cluster int) {
	s.scoreComponents(xs, caches, sc)
	best := 0
	for c, v := range sc.logp {
		if v > sc.logp[best] {
			best = c
		}
	}
	return linalg.LogSumExp(sc.logp), best
}

// Responsibilities computes γ_k(x) for one normalized fact tuple through
// the same factorized evaluation as Score, filling gamma (length K) and
// returning ln p(x) — the tuple's log-likelihood contribution. This is the
// E-step kernel of the incremental-maintenance path (internal/stream): the
// floating-point order is fixed, so absorbing the same rows yields the
// same bits no matter how the work is batched or parallelized.
func (s *Scorer) Responsibilities(xs []float64, caches [][]core.QuadCache, sc *ScoreScratch, gamma []float64) float64 {
	if len(gamma) != s.m.K {
		panic(fmt.Sprintf("gmm: gamma length %d, want K=%d", len(gamma), s.m.K))
	}
	s.scoreComponents(xs, caches, sc)
	return linalg.SoftmaxLSE(gamma, sc.logp)
}
