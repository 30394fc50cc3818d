package gmm

import (
	"factorml/internal/join"
	"factorml/internal/linalg"
)

// NumParams returns the number of free parameters of the mixture: K−1
// mixing weights, K·D means, and K·D(D+1)/2 covariance entries (K·D for a
// diagonal model).
func (m *Model) NumParams() int {
	cov := m.D * (m.D + 1) / 2
	if m.Diagonal {
		cov = m.D
	}
	return (m.K - 1) + m.K*m.D + m.K*cov
}

// BIC is the Bayesian information criterion −2·LL + p·ln(n); lower is
// better. Use it to choose K across trained models.
func (m *Model) BIC(logLikelihood float64, n int64) float64 {
	return -2*logLikelihood + float64(m.NumParams())*linalg.Log(float64(n))
}

// AIC is the Akaike information criterion −2·LL + 2p; lower is better.
func (m *Model) AIC(logLikelihood float64) float64 {
	return -2*logLikelihood + 2*float64(m.NumParams())
}

// Score streams the join and returns the total log-likelihood of the data
// under the model together with the row count, without materializing.
func (m *Model) Score(spec *join.Spec) (ll float64, n int64, err error) {
	logProb := m.LogProbFunc()
	err = join.Stream(spec, func(_ int64, x []float64, _ float64) error {
		ll += logProb(x)
		n++
		return nil
	})
	return ll, n, err
}
