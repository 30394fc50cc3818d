package gmm

import (
	"fmt"
	"math"
	"sync"

	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// Diagonal-covariance ("independent") Gaussian mixtures are the restricted
// model of Cheng & Koudas (ICDE 2019) that this paper generalizes. With a
// diagonal Σ the density factorizes per dimension, so the factorized E-step
// needs only one cached scalar per (dimension tuple, component) — there are
// no cross-relation covariance blocks at all. The same M/S/F trainers
// handle it through Config.Diagonal.

// diagState is the per-component precomputation for diagonal covariances.
type diagState struct {
	invVar  []float64
	logNorm float64
	logW    float64
}

func (m *Model) precomputeDiag() ([]diagState, error) {
	states := make([]diagState, m.K)
	for k := 0; k < m.K; k++ {
		inv := make([]float64, m.D)
		logDet := 0.0
		for i := 0; i < m.D; i++ {
			v := m.Covs[k].At(i, i)
			if v <= 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("gmm: component %d has non-positive variance %v at dim %d", k, v, i)
			}
			inv[i] = 1 / v
			logDet += math.Log(v)
		}
		states[k] = diagState{
			invVar:  inv,
			logNorm: -0.5 * (float64(m.D)*math.Log(2*math.Pi) + logDet),
			logW:    math.Log(math.Max(m.Weights[k], 1e-300)),
		}
	}
	return states, nil
}

// diagQuad computes Σ_i (x_i−µ_i)²·inv_i over a slice range.
func diagQuad(x, mu, inv []float64) float64 {
	var q float64
	for i, v := range x {
		d := v - mu[i]
		q += d * d * inv[i]
	}
	return q
}

// diagQuadPD is diagQuad over a deviation pd = x − µ already formed.
func diagQuadPD(pd, inv []float64) float64 {
	var q float64
	for i, v := range pd {
		q += v * v * inv[i]
	}
	return q
}

// emFactorizedDiag is F-IGMM: emFactorized's one pass per iteration with a
// per-relation scalar cache — the dimension tuple's share of the quadratic
// form — in place of the QuadCache, and no cross blocks, which a diagonal
// covariance does not have: the merge scatters only γ, and a flush folds
// (Σ_{n∈group} γ)·PD_R and (Σ_{n∈group} γ)·PD_R² per dimension tuple.
func emFactorizedDiag(ps *factor.PartScan, n int, cfg Config, model *Model, stats *Stats) error {
	p := ps.Direct
	nw := parallel.Workers(cfg.NumWorkers)
	k := cfg.K
	q := p.Parts() - 1
	dS := p.Dims[0]

	type chunkAcc struct {
		ll      float64
		matches []join.Match
		gamma   []float64 // per match: K responsibilities
		logp    []float64
		pds     []float64 // the current match's K fact-part deviations
		fact    *moments
	}
	pool := sync.Pool{New: func() any {
		return &chunkAcc{
			logp: make([]float64, k),
			pds:  make([]float64, k*dS),
			fact: newMoments(k, dS, true),
		}
	}}

	total := newMoments(k, p.D, true) // fact columns filled after each pass
	fact := newMoments(k, dS, true)
	pd := make([]float64, p.D) // flush scratch

	var qBlk []float64 // cached partial quads, len(block)*k
	var blk groupSums
	var curBlock []*storage.Tuple
	qRes := make([][]float64, q-1)
	res := make([]groupSums, q-1)
	for j := range qRes {
		qRes[j] = make([]float64, len(ps.Resident(j))*k)
	}

	units := core.NewGMMUnits(p, k, true) // charged as in emFactorized

	// fill caches one dimension part's share of every component's
	// quadratic form per tuple.
	fill := func(part int, tuples []*storage.Tuple, dst []float64, states []diagState) error {
		off, w := p.Offs[part], p.Dims[part]
		stats.Ops.Add(units.Fill[part].Scale(int64(len(tuples))))
		return ps.FillCaches(nw, tuples, func(t int, tp *storage.Tuple) error {
			for c := 0; c < k; c++ {
				dst[t*k+c] = diagQuad(tp.Features, model.Means[c][off:off+w], states[c].invVar[off:off+w])
			}
			return nil
		})
	}
	flush := func(part int, tuples []*storage.Tuple, g *groupSums) {
		off, w := p.Offs[part], p.Dims[part]
		pd := pd[:w]
		for t, tp := range tuples {
			for c := 0; c < k; c++ {
				linalg.VecSub(pd, tp.Features, model.Means[c][off:off+w])
				linalg.Axpy(g.w[t*k+c], pd, total.s1[c][off:off+w])
				foldDiag(total.s2[c].Row(0)[off:off+w], g.w[t*k+c], pd)
			}
		}
		stats.Ops.Add(units.Flush[part].Scale(int64(len(tuples))))
	}

	ps.Pass = "figmm.em"
	return runEM(cfg, stats, func() (float64, error) {
		states, err := model.precomputeDiag()
		if err != nil {
			return 0, err
		}
		total.zero()
		fact.zero()
		for j := 0; j < q-1; j++ {
			res[j].reset(len(qRes[j]), 0)
			if err := fill(2+j, ps.Resident(j), qRes[j], states); err != nil {
				return 0, err
			}
		}

		ll := 0.0
		err = ps.RunChunks(nw, join.ParallelCallbacks{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(qBlk) < need {
					qBlk = make([]float64, need)
				}
				qBlk = qBlk[:need]
				blk.reset(need, 0)
				curBlock = block
				return fill(1, block, qBlk, states)
			},
			NewState: func() any {
				a := pool.Get().(*chunkAcc)
				a.ll = 0
				a.fact.zero()
				return a
			},
			OnMatchChunk: func(state any, matches []join.Match) error {
				a := state.(*chunkAcc)
				a.matches = matches
				need := len(matches) * k
				if cap(a.gamma) < need {
					a.gamma = make([]float64, need)
				}
				a.gamma = a.gamma[:need]
				for i, m := range matches {
					for c := 0; c < k; c++ {
						pds := a.pds[c*dS : (c+1)*dS]
						linalg.VecSub(pds, m.S.Features, model.Means[c][:dS])
						qv := diagQuadPD(pds, states[c].invVar) + qBlk[m.R1*k+c]
						for j, ri := range m.Res {
							qv += qRes[j][ri*k+c]
						}
						a.logp[c] = states[c].logW + states[c].logNorm - 0.5*qv
					}
					g := a.gamma[i*k : (i+1)*k]
					a.ll += linalg.SoftmaxLSE(g, a.logp)
					a.fact.foldRows(g, a.pds, 1)
				}
				return nil
			},
			OnChunkMerged: func(state any) error {
				a := state.(*chunkAcc)
				ll += a.ll
				fact.add(a.fact)
				for i, m := range a.matches {
					g := a.gamma[i*k : (i+1)*k]
					blk.scatter(m.R1, g, nil)
					for j, ri := range m.Res {
						res[j].scatter(ri, g, nil)
					}
				}
				stats.Ops.Add(units.Match.Scale(int64(len(a.matches))))
				a.matches = nil
				pool.Put(a)
				return nil
			},
			OnBlockEnd: func() error {
				flush(1, curBlock, &blk)
				return nil
			},
		})
		if err != nil {
			return 0, err
		}
		for j := 0; j < q-1; j++ {
			flush(2+j, ps.Resident(j), &res[j])
		}
		copy(total.nk, fact.nk)
		for c := 0; c < k; c++ {
			copy(total.s1[c], fact.s1[c])
			copy(total.s2[c].Row(0), fact.s2[c].Row(0))
		}
		total.update(model, n, cfg.RegEps)
		return ll, nil
	})
}
