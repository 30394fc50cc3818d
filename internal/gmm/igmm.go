package gmm

import (
	"factorml/internal/core"
	"factorml/internal/linalg"
)

// Diagonal-covariance ("independent") Gaussian mixtures are the restricted
// model of Cheng & Koudas (ICDE 2019) that this paper generalizes. With a
// diagonal Σ the density factorizes per dimension and no cross-relation
// covariance block exists, so a dimension tuple's cache is the full one
// with an empty CrossS: its deviation PD and Self = Σ PD²/σ², its share of
// the quadratic form. The structure is model state — the same M/S/F
// trainers, the Scorer and the streaming refresh handle it through
// Model.Diagonal; what differs is this fill, hotState.scoreRowDiag and the
// moments' foldDiag.

// diagQuadPD is the diagonal quadratic form Σ_i pd_i²·inv_i of a deviation
// pd = x − µ.
func diagQuadPD(pd, inv []float64) float64 {
	var q float64
	for i, v := range pd {
		q += v * v * inv[i]
	}
	return q
}

// fillDiagCache is core.FillQuadCache for a diagonal covariance: mu and
// invVar are the component's mean and inverse variances over xr's columns.
func fillDiagCache(dst *core.QuadCache, xr, mu, invVar []float64) {
	if cap(dst.PD) < len(xr) {
		dst.PD = make([]float64, len(xr))
	}
	dst.PD = dst.PD[:len(xr)]
	linalg.VecSub(dst.PD, xr, mu)
	dst.Self = diagQuadPD(dst.PD, invVar)
	dst.CrossS = dst.CrossS[:0]
}
