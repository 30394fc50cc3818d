package gmm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"factorml/internal/core"
	"factorml/internal/linalg"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// Model is a K-component Gaussian mixture over d-dimensional data.
type Model struct {
	K int
	D int
	// Diagonal: every covariance is diagonal (stored dense, off-diagonals
	// exactly 0). State like K and D — whatever scores, counts, saves or
	// refreshes the model reads its structure here.
	Diagonal bool
	Weights  []float64       // mixing coefficients π_k, sum to 1
	Means    [][]float64     // K × D
	Covs     []*linalg.Dense // K dense D×D covariance matrices
}

// RegEps is the diagonal regularizer every covariance gets: at
// initialization and in every M-step, in training and in a stream refresh
// alike, so a refreshed mixture is regularized as it was trained.
const RegEps = 1e-6

// Config controls EM training — the model and the worker pool, nothing
// about the join: its block size is a field of the join.Spec, where the
// join, every access path and the planner all read it.
type Config struct {
	K       int     // number of components (required, ≥ 1)
	MaxIter int     // maximum EM iterations (default 25)
	Tol     float64 // relative log-likelihood change for convergence (default 1e-4)
	Seed    int64   // RNG seed for initialization (default 1)

	// Diagonal restricts covariances to diagonal matrices — the IGMM model
	// of Cheng & Koudas (ICDE 2019) that this paper generalizes. It is the
	// one request knob: Train stamps it on the model (Model.Diagonal), and
	// the factorized trainer then caches PD and one scalar per dimension
	// tuple and component (no cross-relation covariance blocks exist).
	Diagonal bool

	// Init, when non-nil, warm-starts training from this model instead of
	// the seeded reservoir initialization: the trainer clones it and runs
	// EM from there. Init.K must equal K and Init.D must match the joined
	// feature width. Seed is then unused. A single warm-started iteration
	// is the EM step the streaming subsystem's incremental GMM refresh is
	// equivalent to (internal/stream pins the two against each other);
	// it is also how a served model is retrained in place on base+delta.
	Init *Model

	// NumWorkers sets the size of the worker pool that parallelizes the
	// training passes: 0 uses every CPU (runtime.NumCPU()), 1 runs
	// sequentially on the calling goroutine, n > 1 uses n workers. (The
	// factorml facade first resolves 0 to its database-wide
	// Options.NumWorkers default, which itself defaults to every CPU.) The
	// chunk geometry and reduction order are independent of this knob
	// (see internal/parallel), so the trained model is bit-for-bit
	// identical for every value — parallelism never trades away the
	// paper's exactness guarantee.
	NumWorkers int
}

func (c Config) withDefaults() Config {
	if c.MaxIter == 0 {
		c.MaxIter = 25
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("gmm: config K = %d, want ≥ 1", c.K)
	}
	if c.MaxIter < 0 || c.Tol < 0 {
		return errors.New("gmm: negative MaxIter/Tol")
	}
	return nil
}

// Stats reports how training went.
type Stats struct {
	Iters         int
	Converged     bool
	LogLikelihood []float64 // per completed iteration
	Ops           core.Ops  // training-math flops: core's per-event units × the events this run saw
	IO            storage.IOStats
	TrainTime     time.Duration

	// Plan, when training was strategy-planned (factorml.Auto), records
	// the planner's decision: the chosen strategy plus the per-strategy
	// cost estimates it ranked. Nil when the caller picked the strategy.
	Plan *plan.Plan
}

// Result bundles the trained model with its statistics.
type Result struct {
	Model *Model
	Stats Stats
}

// FinalLL returns the last recorded log-likelihood, or -Inf when training
// recorded none.
func (s *Stats) FinalLL() float64 {
	if len(s.LogLikelihood) == 0 {
		return math.Inf(-1)
	}
	return s.LogLikelihood[len(s.LogLikelihood)-1]
}

// compState holds the per-component quantities precomputed once per EM
// iteration: the inverse covariance (paper's I_k) blocked over the scoring
// partition — for a diagonal model also the inverse variances — and the
// constant part of the log density.
type compState struct {
	invVar  []float64 // 1/σ² per dimension; nil for a full covariance
	blocked *core.BlockedSym
	logNorm float64 // -0.5·(d·ln 2π + ln|Σ|)
	logW    float64 // ln π_k
}

// precompute factorizes every component covariance and blocks its inverse
// over p. It returns an error when a covariance is not positive definite
// (which regularization should prevent).
func (m *Model) precompute(p core.Partition) ([]compState, error) {
	states := make([]compState, m.K)
	for k := range states {
		st := &states[k]
		var inv *linalg.Dense
		var logDet float64
		if m.Diagonal {
			st.invVar = make([]float64, m.D)
			for i := range st.invVar {
				v := m.Covs[k].At(i, i)
				if v <= 0 || math.IsNaN(v) {
					return nil, fmt.Errorf("gmm: component %d has non-positive variance %v at dim %d", k, v, i)
				}
				st.invVar[i] = 1 / v
				logDet += linalg.Log(v)
			}
			inv = linalg.Diag(st.invVar)
		} else {
			var err error
			if inv, logDet, err = linalg.SPDInverse(m.Covs[k]); err != nil {
				return nil, fmt.Errorf("gmm: component %d covariance: %w", k, err)
			}
		}
		st.logNorm = -0.5 * (float64(m.D)*linalg.Log(2*math.Pi) + logDet)
		st.logW = linalg.Log(math.Max(m.Weights[k], 1e-300))
		st.blocked = core.BlockSym(inv, p)
	}
	return states, nil
}

// denseScorer is the Scorer over the one-part partition: a joined row is
// its fact part, with no dimension caches and no cross blocks, so the fused
// kernel scores it in one quadratic form. It serves every dense consumer —
// LogProb, Responsibilities and Predict; em builds the same from the
// one-part partition an M or S path trains over.
func (m *Model) denseScorer() (*Scorer, error) {
	return m.NewScorer(core.NewPartition([]int{m.D}))
}

// LogProb returns ln p(x) under the mixture. It factorizes all K
// covariances on every call; score many points through LogProbFunc.
func (m *Model) LogProb(x []float64) float64 { return m.LogProbFunc()(x) }

// LogProbFunc returns x ↦ ln p(x) with the covariances factorized once,
// here, instead of on every call — the way to score a whole scan. The
// values are LogProb's, bit for bit (−Inf everywhere when a covariance is
// not positive definite). The function owns scratch: use it from one
// goroutine at a time.
func (m *Model) LogProbFunc() func(x []float64) float64 {
	s, err := m.denseScorer()
	var sc *ScoreScratch
	if err == nil {
		sc = s.NewScratch()
	}
	return func(x []float64) float64 {
		if len(x) != m.D {
			panic(fmt.Sprintf("gmm: point has dim %d, model has %d", len(x), m.D))
		}
		if err != nil {
			return math.Inf(-1)
		}
		lp, _ := s.Score(x, nil, sc)
		return lp
	}
}

// Responsibilities returns γ_k(x) = p(z = k | x) for a single point.
func (m *Model) Responsibilities(x []float64) []float64 {
	out := make([]float64, m.K)
	s, err := m.denseScorer()
	if err != nil {
		for i := range out {
			out[i] = 1 / float64(m.K)
		}
		return out
	}
	s.Responsibilities(x, nil, s.NewScratch(), out)
	return out
}

// Predict returns the index of the most responsible component for x.
func (m *Model) Predict(x []float64) int {
	r := m.Responsibilities(x)
	best := 0
	for k, v := range r {
		if v > r[best] {
			best = k
		}
	}
	return best
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	out := &Model{K: m.K, D: m.D, Diagonal: m.Diagonal, Weights: append([]float64{}, m.Weights...)}
	for k := 0; k < m.K; k++ {
		out.Means = append(out.Means, append([]float64{}, m.Means[k]...))
		out.Covs = append(out.Covs, m.Covs[k].Clone())
	}
	return out
}

// MaxParamDiff returns the largest absolute difference between any parameter
// of m and o (used by the exactness tests).
func (m *Model) MaxParamDiff(o *Model) float64 {
	if m.K != o.K || m.D != o.D {
		return math.Inf(1)
	}
	max := linalg.MaxAbsDiffVec(m.Weights, o.Weights)
	for k := 0; k < m.K; k++ {
		if d := linalg.MaxAbsDiffVec(m.Means[k], o.Means[k]); d > max {
			max = d
		}
		if d := m.Covs[k].MaxAbsDiff(o.Covs[k]); d > max {
			max = d
		}
	}
	return max
}
