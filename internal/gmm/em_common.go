package gmm

import "math"

// CollapseFloor is the responsibility mass below which a component is
// considered collapsed; its parameters are then frozen for the iteration.
// Every M-step — the dense and factorized trainers' and the streaming
// refresh's — is Moments.Step, so they freeze the same components by
// construction whenever their N_k agree.
const CollapseFloor = 1e-12

// foldBlockRows is how many matches a chunk scores before folding them into
// the moments together (Moments.FoldRows takes rows four at a time). It only
// blocks the loop for the cache: the sums are the same bits for any value.
const foldBlockRows = 32

// runEM drives the EM loop shared by every trainer: step runs one whole
// iteration — E-step, moment fold and parameter update in a single pass
// over the data — and returns the log-likelihood under the parameters it
// started from; the loop records it and applies the paper's stopping rule.
func runEM(cfg Config, stats *Stats, step func() (float64, error)) error {
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		ll, err := step()
		if err != nil {
			return err
		}
		stats.LogLikelihood = append(stats.LogLikelihood, ll)
		stats.Iters = iter + 1
		if iter > 0 && converged(ll, prevLL, cfg.Tol) {
			stats.Converged = true
			break
		}
		prevLL = ll
	}
	return nil
}

// converged applies the paper's stopping rule: the log-likelihood change
// between consecutive iterations falls below a (relative) threshold.
func converged(ll, prevLL, tol float64) bool {
	return math.Abs(ll-prevLL) <= tol*math.Max(1, math.Abs(prevLL))
}
