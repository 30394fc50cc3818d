package core

import (
	"factorml/internal/linalg"
)

// QuadCache holds the per-dimension-tuple quantities of the factorized
// E-step quadratic form (paper Eq. 7–12). For a dimension tuple with
// features x_R, relation part i, Gaussian component mean µ and blocked
// inverse covariance I:
//
//	PD     = x_R − µ_Ri                        (Eq. 8/20)
//	Self   = PDᵀ · I_ii · PD                   (the LR term, Eq. 12)
//	CrossS = I_0i · PD  (length dS)            (so UR+LL = 2·PDS·CrossS)
//
// The whole quadratic form for a joined tuple then needs only
// dS²+O(dS·q) work per fact tuple instead of d².
type QuadCache struct {
	PD     []float64
	Self   float64
	CrossS []float64
}

// FillQuadCache computes the cache for dimension part i (i ≥ 1) of the
// partition, given the dimension tuple's features xr, the component mean µ
// (full joined width) and the blocked inverse covariance. It reuses dst's
// slices when capacities allow. Filling a tuple's K component caches costs
// GMMUnits.Fill[i].
func FillQuadCache(dst *QuadCache, bs *BlockedSym, i int, xr []float64, mu []float64) {
	p := bs.P
	di := p.Dims[i]
	d0 := p.Dims[0]
	if cap(dst.PD) < di {
		dst.PD = make([]float64, di)
	}
	dst.PD = dst.PD[:di]
	muI := p.Slice(mu, i)
	linalg.VecSub(dst.PD, xr, muI)
	dst.Self = linalg.QuadForm(bs.B[i][i], dst.PD)

	if cap(dst.CrossS) < d0 {
		dst.CrossS = make([]float64, d0)
	}
	dst.CrossS = dst.CrossS[:d0]
	linalg.MatVec(dst.CrossS, bs.B[0][i], dst.PD)
}

// FactQuad completes the quadratic form (x−µ)ᵀ I (x−µ) for one fact tuple:
// pds is the fact part PD_S = x_S − µ_S (already formed by the caller),
// caches holds one QuadCache per dimension part (index 0 ↔ part 1).
// Cross terms between two dimension parts (multi-way case, paper Eq. 19
// with i≠j, i,j ≥ 1) are evaluated through the cached PDs. It is the
// reference the fused E-step kernel is pinned to, and so the one kernel
// that still charges ops term by term where the work is done: its count is
// the independent check on GMMUnits.Score (see cost.go).
func FactQuad(bs *BlockedSym, pds []float64, caches []*QuadCache, ops *Ops) float64 {
	q := linalg.QuadForm(bs.B[0][0], pds)
	ops.AddQuadForm(len(pds))
	for _, c := range caches {
		q += 2*linalg.Dot(pds, c.CrossS) + c.Self
		ops.AddDot(len(pds))
		ops.Adds += 3
		ops.Mul++
	}
	for i := 0; i < len(caches); i++ {
		for j := i + 1; j < len(caches); j++ {
			q += 2 * linalg.BilinearForm(caches[i].PD, bs.B[i+1][j+1], caches[j].PD)
			ops.AddBilinear(len(caches[i].PD), len(caches[j].PD))
			ops.Adds++
			ops.Mul++
		}
	}
	return q
}
