package gmm

import (
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
)

// emDense runs EM over a dense pass source. It is the engine of M-GMM and
// S-GMM, full-covariance and diagonal (Model.Diagonal) alike. Algorithm 1
// of the paper reads the rows three times per iteration — responsibilities,
// means, covariances; here an iteration is one pass through whatever access
// path `scan` encapsulates (reading the materialized T, or re-joining on
// the fly): each row's responsibilities are folded into the iteration's
// Moments, about its starting means, as soon as they are known, from the
// deviations x − µ_c the E-step has just formed. The E-step is the fused
// kernel of Scorer over the one-part partition (Model.denseScorer), the
// same kernel the factorized trainer runs with dimension caches.
//
// The pass is executed by the shared chunked row-pass operator
// (factor.RunRowPass over internal/parallel): rows are cut into fixed
// chunks, each chunk folds into the accumulator it carries on a worker, and
// the accumulators merge in chunk order. The trained model is therefore
// bit-identical for every cfg.NumWorkers value.
func emDense(scan func(onRow factor.RowFn) error, d, n int, cfg Config, model *Model, stats *Stats) error {
	nw := parallel.Workers(cfg.NumWorkers)
	k := cfg.K
	name := "gmm.em"
	if model.Diagonal {
		name = "igmm.em"
	}

	// A chunk's accumulator. A chunk is scored and folded foldBlockRows rows
	// at a time: gamma and pd hold that many rows' K responsibilities and K
	// deviations x − µ_c, small enough to stay in cache between the two.
	type chunkAcc struct {
		logp  []float64
		gamma []float64
		pd    []float64
		mom   *Moments
	}
	p := core.NewPartition([]int{d})
	total := NewMoments(p, k, model.Diagonal)
	perRow := core.NewGMMUnits(p, k, model.Diagonal).DenseRow

	return runEM(cfg, stats, func() (float64, error) {
		scorer, err := model.denseScorer()
		if err != nil {
			return 0, err
		}
		total.Reset(model.Means)
		err = factor.RunRowPass(name, nw, d, scan, factor.PassHooks[chunkAcc]{
			NewAcc: func() chunkAcc {
				return chunkAcc{
					logp:  make([]float64, k),
					gamma: make([]float64, foldBlockRows*k),
					pd:    make([]float64, foldBlockRows*k*d),
					mom:   NewMoments(p, k, model.Diagonal),
				}
			},
			Fold: func(a *chunkAcc, _ int, rows, _ []float64, nr int) error {
				for nr > 0 {
					nb := min(nr, foldBlockRows)
					for i := 0; i < nb; i++ {
						scorer.score(rows[i*d:(i+1)*d], nil, a.pd[i*k*d:(i+1)*k*d], a.logp)
						a.mom.AddLL(linalg.SoftmaxLSE(a.gamma[i*k:(i+1)*k], a.logp))
					}
					a.mom.FoldRows(a.gamma, a.pd, nb)
					rows, nr = rows[nb*d:], nr-nb
				}
				return nil
			},
			Merge: func(a *chunkAcc) error {
				total.Add(a.mom)
				a.mom.Zero()
				return nil
			}})
		if err != nil {
			return 0, err
		}
		stats.Ops.Add(perRow.Scale(int64(n)))
		ll := total.LL()
		total.Step(model, n)
		return ll, nil
	})
}
