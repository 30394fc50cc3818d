package gmm

import (
	"factorml/internal/core"
	"factorml/internal/linalg"
)

// EStepBenchHooks exposes the fused and pre-fusion E-step kernels side by
// side for benchmark/layers.go (gmm.estep_{fused,unfused}_ns_per_row): each
// returned function scores one normalized fact tuple, fills gamma with the
// responsibilities, and returns ln p(x). Production paths always evaluate
// through Score / Responsibilities (the fused kernel); the unfused closure
// keeps the original per-term loop alive purely as the measured baseline.
func (s *Scorer) EStepBenchHooks() (fused, unfused func(xs []float64, caches [][]core.QuadCache, sc *ScoreScratch, gamma []float64) float64) {
	finish := func(sc *ScoreScratch, gamma []float64) float64 {
		return linalg.SoftmaxLSE(gamma, sc.logp)
	}
	fused = func(xs []float64, caches [][]core.QuadCache, sc *ScoreScratch, gamma []float64) float64 {
		s.scoreComponents(xs, caches, sc)
		return finish(sc, gamma)
	}
	unfused = func(xs []float64, caches [][]core.QuadCache, sc *ScoreScratch, gamma []float64) float64 {
		s.scoreComponentsUnfused(xs, caches, sc)
		return finish(sc, gamma)
	}
	return fused, unfused
}
