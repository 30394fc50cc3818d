package gmm

import (
	"math"

	"factorml/internal/linalg"
)

// CollapseFloor is the responsibility mass below which a component is
// considered collapsed; its parameters are then frozen for the iteration.
// The check is applied identically by the dense and factorized trainers
// (the Nk accumulation order is the same), so exactness is preserved, and
// by stream.GMMStats.Step, whose incremental refresh must freeze exactly
// the components one warm-started iteration here would.
const CollapseFloor = 1e-12

// foldBlockRows is how many rows the dense trainers score before folding
// them into the moments together (moments.foldRows takes rows four at a
// time). It only blocks the loop for the cache: the sums are the same bits
// for any value.
const foldBlockRows = 32

// moments are the sufficient statistics of one EM iteration, taken about
// the means the iteration started from: with PD = x − µ_c,
//
//	nk[c] = Σγ_c    s1[c] = Σγ_c·PD    s2[c] = Σγ_c·PD·PDᵀ
//
// s2[c] is d×d with only its upper triangle accumulated for a full
// covariance, and 1×d — the diagonal alone — for a diagonal one. A row is
// folded in as soon as its responsibilities are known, from the PD the
// E-step has just formed, so an iteration reads the data once.
type moments struct {
	diagonal bool
	buf      []float64 // nk, s1 and s2 end to end
	nk       []float64
	s1       [][]float64
	s2       []*linalg.Dense
}

func newMoments(k, d int, diagonal bool) moments {
	rows := d
	if diagonal {
		rows = 1
	}
	m := moments{diagonal: diagonal, buf: make([]float64, k*(1+d+rows*d))}
	m.nk, m.s1, m.s2 = m.buf[:k:k], make([][]float64, k), make([]*linalg.Dense, k)
	for c := range m.s1 {
		s1, s2 := k+c*d, k*(1+d)+c*rows*d
		m.s1[c] = m.buf[s1 : s1+d : s1+d]
		m.s2[c] = linalg.NewDenseData(rows, d, m.buf[s2:s2+rows*d:s2+rows*d])
	}
	return m
}

func (m *moments) zero() { linalg.VecZero(m.buf) }

// add merges another accumulator's sums into m. The trainers call it per
// chunk, in chunk order, which fixes the floating-point reduction for
// every worker count.
func (m *moments) add(o *moments) { linalg.VecAdd(m.buf, m.buf, o.buf) }

// foldRows adds n rows: gamma holds their K responsibilities each, row
// after row, and pd their K deviations x − µ_c each, every one as wide as
// the moments.
func (m *moments) foldRows(gamma, pd []float64, n int) {
	k, d := len(m.s1), len(m.s1[0])
	for c := 0; c < k; c++ {
		s1 := m.s1[c]
		for r := 0; r < n; r++ {
			g := gamma[r*k+c]
			pdc := pd[(r*k+c)*d:]
			m.nk[c] += g
			linalg.AxpyN(g, pdc, s1, d)
			if m.diagonal {
				foldDiag(m.s2[c].Row(0), g, pdc[:d])
			}
		}
		if !m.diagonal {
			linalg.SyrkAccumRows(m.s2[c], gamma[c:], k, pd[c*d:], k*d, n)
		}
	}
}

// foldDiag accumulates v2 += w·pd² element-wise — the diagonal of w·pd·pdᵀ.
func foldDiag(v2 []float64, w float64, pd []float64) {
	v2 = v2[:len(pd)]
	for i, v := range pd {
		v2[i] += w * v * v
	}
}

// update moves the model to the M-step solution (Eq. 3–5). With d = s1/N_k,
// the mean of the deviations,
//
//	µ ← µ + d        Σ ← s2/N_k − d·dᵀ + εI
//
// which is the textbook Σγ(x−µ_new)(x−µ_new)ᵀ/N_k exactly, because
// Σγ(PD−d) = 0 — so the second moments never have to be retaken against
// the new means. The upper triangle is computed and mirrored, making Σ
// symmetric by construction. A collapsed component keeps its mean and
// covariance.
func (m *moments) update(model *Model, n int, regEps float64) {
	for c, dv := range m.s1 {
		model.Weights[c] = m.nk[c] / float64(n)
		if m.nk[c] < CollapseFloor {
			continue
		}
		inv := 1 / m.nk[c]
		linalg.VecScale(dv, inv, dv)
		cov := model.Covs[c]
		if m.diagonal {
			cov.Zero()
			for i, s := range m.s2[c].Row(0) {
				cov.Set(i, i, s*inv-dv[i]*dv[i]+regEps)
			}
		} else {
			for i, di := range dv {
				srow := m.s2[c].Row(i)
				for j := i; j < len(dv); j++ {
					v := srow[j]*inv - di*dv[j]
					if i == j {
						v += regEps
					}
					cov.Set(i, j, v)
					cov.Set(j, i, v)
				}
			}
		}
		linalg.Axpy(1, dv, model.Means[c])
	}
}

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
	diff := ll - prevLL
	if diff < 0 {
		diff = -diff
	}
	scale := prevLL
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}
