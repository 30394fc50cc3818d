package gmm

import (
	"fmt"
	"math/rand"

	"factorml/internal/factor"
	"factorml/internal/linalg"
)

// warmStart validates cfg.Init against the dataset, counts the training
// points with one (cheap, feature-free) pass — the count is needed for the
// M-step weight denominators — and clones the model so the caller's copy
// is never mutated by training; the clone takes the covariance structure
// the configuration asks for. Every algorithm streams the same join, so
// the warm-started trainers remain exactly comparable.
func warmStart(scan func(onRow factor.RowFn) error, d int, cfg Config) (*Model, int, error) {
	if cfg.Init.D != d {
		return nil, 0, fmt.Errorf("gmm: warm-start model has dimension %d, dataset joins to %d", cfg.Init.D, d)
	}
	if cfg.Init.K != cfg.K {
		return nil, 0, fmt.Errorf("gmm: warm-start model has K=%d, config asks K=%d", cfg.Init.K, cfg.K)
	}
	n := 0
	err := scan(func(x []float64, _ float64) error {
		if len(x) != d {
			return fmt.Errorf("gmm: stream vector dim %d, want %d", len(x), d)
		}
		n++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("gmm: warm start over an empty dataset")
	}
	m := cfg.Init.Clone()
	if cfg.Diagonal {
		m.restrictToDiagonal()
	}
	m.Diagonal = cfg.Diagonal
	return m, n, nil
}

// restrictToDiagonal makes m a diagonal mixture that keeps its variances
// alone. A full-covariance warm start asked to train diagonally needs it:
// the diagonal kernels never read an off-diagonal entry, and a component
// that stays collapsed would carry its own out unchanged.
func (m *Model) restrictToDiagonal() {
	m.Diagonal = true
	for _, cov := range m.Covs {
		for i := range cov.Data() {
			if i/m.D != i%m.D {
				cov.Data()[i] = 0
			}
		}
	}
}

// initModel performs one pass over the data to (a) count N, (b) accumulate
// the global per-feature mean and variance, and (c) reservoir-sample K
// points as initial means. The reservoir uses a seeded RNG over the
// deterministic stream order, so every algorithm arrives at the identical
// initial model — a precondition for the exactness comparisons.
func initModel(scan func(onRow factor.RowFn) error, d int, cfg Config) (*Model, int, error) {
	if cfg.Init != nil {
		return warmStart(scan, d, cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reservoir := make([][]float64, 0, cfg.K)
	sum := make([]float64, d)
	sumSq := make([]float64, d)
	n := 0
	err := scan(func(x []float64, _ float64) error {
		if len(x) != d {
			return fmt.Errorf("gmm: stream vector dim %d, want %d", len(x), d)
		}
		if n < cfg.K {
			reservoir = append(reservoir, append([]float64{}, x...))
		} else if j := rng.Int63n(int64(n + 1)); j < int64(cfg.K) {
			copy(reservoir[j], x)
		}
		for i, v := range x {
			sum[i] += v
			sumSq[i] += v * v
		}
		n++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if n < cfg.K {
		return nil, 0, fmt.Errorf("gmm: %d training points for K=%d components", n, cfg.K)
	}
	variance := make([]float64, d)
	for i := range variance {
		mean := sum[i] / float64(n)
		variance[i] = sumSq[i]/float64(n) - mean*mean
		if variance[i] < RegEps {
			variance[i] = RegEps
		}
	}
	m := &Model{K: cfg.K, D: d, Diagonal: cfg.Diagonal, Weights: make([]float64, cfg.K)}
	for k := 0; k < cfg.K; k++ {
		m.Weights[k] = 1 / float64(cfg.K)
		m.Means = append(m.Means, reservoir[k])
		cov := linalg.Diag(variance)
		cov.AddDiag(RegEps)
		m.Covs = append(m.Covs, cov)
	}
	return m, n, nil
}
