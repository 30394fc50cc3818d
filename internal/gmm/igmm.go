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

// emDenseDiag is the diagonal-covariance EM over a dense pass source
// (M-IGMM and S-IGMM). Like emDense, every pass runs on the chunked worker
// pool with ordered merges, so the model is bit-identical for every
// cfg.NumWorkers value.
func emDenseDiag(pass passFn, d, n int, cfg Config, model *Model, stats *Stats) error {
	nw := parallel.Workers(cfg.NumWorkers)
	scan := func(onRow factor.RowFn) error {
		return pass(func(x []float64) error { return onRow(x, 0) })
	}
	k := cfg.K
	gamma := make([]float64, n*k)

	type eAcc struct {
		ll   float64
		ops  core.Ops
		logp []float64
	}
	ePool := sync.Pool{New: func() any { return &eAcc{logp: make([]float64, k)} }}
	type mAcc struct {
		ops core.Ops
		nk  []float64
		sum [][]float64 // means in pass 1, variances in pass 2
	}
	newMAcc := func() any {
		a := &mAcc{nk: make([]float64, k), sum: make([][]float64, k)}
		for c := 0; c < k; c++ {
			a.sum[c] = make([]float64, d)
		}
		return a
	}
	mPool := sync.Pool{New: newMAcc}
	getMAcc := func() any {
		a := mPool.Get().(*mAcc)
		a.ops = core.Ops{}
		for c := 0; c < k; c++ {
			a.nk[c] = 0
			linalg.VecZero(a.sum[c])
		}
		return a
	}

	nk := make([]float64, k)
	sumMu := make([][]float64, k)
	sumVar := make([][]float64, k)
	for c := 0; c < k; c++ {
		sumMu[c] = make([]float64, d)
		sumVar[c] = make([]float64, d)
	}

	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		states, err := model.precomputeDiag()
		if err != nil {
			return err
		}

		// E pass.
		ll := 0.0
		err = factor.RunRowPass("igmm.estep", nw, d, scan, factor.PassHooks{
			NewAcc: func() any {
				a := ePool.Get().(*eAcc)
				a.ll, a.ops = 0, core.Ops{}
				return a
			},
			Fold: func(acc any, start int, rows, _ []float64, nr int) error {
				a := acc.(*eAcc)
				for i := 0; i < nr; i++ {
					x := rows[i*d : (i+1)*d]
					for c := 0; c < k; c++ {
						q := diagQuad(x, model.Means[c], states[c].invVar)
						a.ops.AddDiagQuad(d)
						a.logp[c] = states[c].logW + states[c].logNorm - 0.5*q
					}
					lse := linalg.LogSumExp(a.logp)
					a.ll += lse
					g := gamma[(start+i)*k : (start+i+1)*k]
					for c := 0; c < k; c++ {
						g[c] = math.Exp(a.logp[c] - lse)
					}
				}
				return nil
			},
			Merge: func(acc any) error {
				a := acc.(*eAcc)
				ll += a.ll
				stats.Ops.Add(a.ops)
				ePool.Put(a)
				return nil
			}})
		if err != nil {
			return err
		}

		// M pass 1: means and weights.
		for c := 0; c < k; c++ {
			nk[c] = 0
			linalg.VecZero(sumMu[c])
		}
		err = factor.RunRowPass("igmm.mstep_means", nw, d, scan, factor.PassHooks{
			NewAcc: getMAcc,
			Fold: func(acc any, start int, rows, _ []float64, nr int) error {
				a := acc.(*mAcc)
				for i := 0; i < nr; i++ {
					x := rows[i*d : (i+1)*d]
					g := gamma[(start+i)*k : (start+i+1)*k]
					for c := 0; c < k; c++ {
						a.nk[c] += g[c]
						linalg.Axpy(g[c], x, a.sum[c])
						a.ops.AddAxpy(d)
					}
				}
				return nil
			},
			Merge: func(acc any) error {
				a := acc.(*mAcc)
				for c := 0; c < k; c++ {
					nk[c] += a.nk[c]
					linalg.VecAdd(sumMu[c], sumMu[c], a.sum[c])
				}
				stats.Ops.Add(a.ops)
				mPool.Put(a)
				return nil
			}})
		if err != nil {
			return err
		}
		collapsed := applyMeanUpdates(model, nk, sumMu, n)

		// M pass 2: per-dimension variances.
		for c := 0; c < k; c++ {
			linalg.VecZero(sumVar[c])
		}
		err = factor.RunRowPass("igmm.mstep_var", nw, d, scan, factor.PassHooks{
			NewAcc: getMAcc,
			Fold: func(acc any, start int, rows, _ []float64, nr int) error {
				a := acc.(*mAcc)
				for i := 0; i < nr; i++ {
					x := rows[i*d : (i+1)*d]
					g := gamma[(start+i)*k : (start+i+1)*k]
					for c := 0; c < k; c++ {
						mu := model.Means[c]
						sv := a.sum[c]
						gc := g[c]
						for i2, v := range x {
							pd := v - mu[i2]
							sv[i2] += gc * pd * pd
						}
						a.ops.AddDiagQuad(d)
					}
				}
				return nil
			},
			Merge: func(acc any) error {
				a := acc.(*mAcc)
				for c := 0; c < k; c++ {
					linalg.VecAdd(sumVar[c], sumVar[c], a.sum[c])
				}
				stats.Ops.Add(a.ops)
				mPool.Put(a)
				return nil
			}})
		if err != nil {
			return err
		}
		applyDiagCovUpdates(model, nk, sumVar, collapsed, cfg.RegEps)

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

// applyDiagCovUpdates writes diagonal covariances from per-dimension
// accumulators.
func applyDiagCovUpdates(model *Model, nk []float64, sumVar [][]float64, collapsed []bool, regEps float64) {
	for c := 0; c < model.K; c++ {
		if collapsed[c] {
			continue
		}
		model.Covs[c].Zero()
		for i := 0; i < model.D; i++ {
			model.Covs[c].Set(i, i, sumVar[c][i]/nk[c]+regEps)
		}
	}
}

// emFactorizedDiag is F-IGMM: like emFactorized but with per-relation
// scalar caches (no cross blocks exist for a diagonal covariance). The
// E-step runs on the chunked worker pool; the factorized M-step passes stay
// sequential (see emFactorized).
func emFactorizedDiag(ps *factor.PartScan, n int, cfg Config, model *Model, stats *Stats) error {
	p := ps.Direct
	nw := parallel.Workers(cfg.NumWorkers)
	k := cfg.K
	q := p.Parts() - 1
	dS := p.Dims[0]

	gamma := make([]float64, n*k)

	type fdAcc struct {
		ll    float64
		ops   core.Ops
		ng    int
		gamma []float64
		logp  []float64
	}
	fdPool := sync.Pool{New: func() any { return &fdAcc{logp: make([]float64, k)} }}

	nk := make([]float64, k)
	sumMuParts := make([][][]float64, p.Parts())
	sumVarParts := make([][][]float64, p.Parts())
	for i := range sumMuParts {
		sumMuParts[i] = make([][]float64, k)
		sumVarParts[i] = make([][]float64, k)
		for c := 0; c < k; c++ {
			sumMuParts[i][c] = make([]float64, p.Dims[i])
			sumVarParts[i][c] = make([]float64, p.Dims[i])
		}
	}
	sumMuFull := make([][]float64, k)
	sumVarFull := make([][]float64, k)
	for c := 0; c < k; c++ {
		sumMuFull[c] = make([]float64, p.D)
		sumVarFull[c] = make([]float64, p.D)
	}

	var qBlk []float64 // E-step cached partial quads, len(block)*k
	var wBlk []float64 // group responsibility sums
	var curBlock []*storage.Tuple

	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		states, err := model.precomputeDiag()
		if err != nil {
			return err
		}

		// Resident caches: partial quads per (tuple, component), filled on
		// the pool over disjoint slots.
		ps.Pass = "igmm.estep"
		qRes := make([][]float64, q-1)
		for j := 0; j < q-1; j++ {
			tuples := ps.Resident(j)
			qRes[j] = make([]float64, len(tuples)*k)
			qj := qRes[j]
			off := p.Offs[2+j]
			dj := p.Dims[2+j]
			err = ps.FillCaches(nw, tuples, &stats.Ops, func(t int, tp *storage.Tuple, ops *core.Ops) error {
				for c := 0; c < k; c++ {
					qj[t*k+c] = diagQuad(tp.Features, model.Means[c][off:off+dj], states[c].invVar[off:off+dj])
					ops.AddDiagQuad(dj)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}

		// E pass.
		ll := 0.0
		idx := 0
		err = ps.RunChunks(nw, join.ParallelCallbacks{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(qBlk) < need {
					qBlk = make([]float64, need)
				}
				qBlk = qBlk[:need]
				off := p.Offs[1]
				d1 := p.Dims[1]
				return ps.FillCaches(nw, block, &stats.Ops, func(i int, tp *storage.Tuple, ops *core.Ops) error {
					for c := 0; c < k; c++ {
						qBlk[i*k+c] = diagQuad(tp.Features, model.Means[c][off:off+d1], states[c].invVar[off:off+d1])
						ops.AddDiagQuad(d1)
					}
					return nil
				})
			},
			NewState: func() any {
				a := fdPool.Get().(*fdAcc)
				a.ll, a.ops, a.ng = 0, core.Ops{}, 0
				a.gamma = a.gamma[:0]
				return a
			},
			OnMatchChunk: func(state any, matches []join.Match) error {
				a := state.(*fdAcc)
				for _, m := range matches {
					for c := 0; c < k; c++ {
						qv := diagQuad(m.S.Features, model.Means[c][:dS], states[c].invVar[:dS])
						a.ops.AddDiagQuad(dS)
						qv += qBlk[m.R1*k+c]
						for j, ri := range m.Res {
							qv += qRes[j][ri*k+c]
						}
						a.ops.Adds += int64(q)
						a.logp[c] = states[c].logW + states[c].logNorm - 0.5*qv
					}
					lse := linalg.LogSumExp(a.logp)
					a.ll += lse
					for c := 0; c < k; c++ {
						a.gamma = append(a.gamma, math.Exp(a.logp[c]-lse))
					}
					a.ng++
				}
				return nil
			},
			OnChunkMerged: func(state any) error {
				a := state.(*fdAcc)
				copy(gamma[idx*k:(idx+a.ng)*k], a.gamma)
				idx += a.ng
				ll += a.ll
				stats.Ops.Add(a.ops)
				fdPool.Put(a)
				return nil
			},
		})
		if err != nil {
			return err
		}

		// M pass 1: means and weights, grouped per dimension tuple.
		for c := 0; c < k; c++ {
			nk[c] = 0
			for i := range sumMuParts {
				linalg.VecZero(sumMuParts[i][c])
			}
		}
		wRes := make([][]float64, q-1)
		for j := 0; j < q-1; j++ {
			wRes[j] = make([]float64, len(ps.Resident(j))*k)
		}
		idx = 0
		ps.Pass = "igmm.mstep_means"
		err = ps.Run(join.Callbacks{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(wBlk) < need {
					wBlk = make([]float64, need)
				}
				wBlk = wBlk[:need]
				linalg.VecZero(wBlk)
				curBlock = block
				return nil
			},
			OnMatch: func(s *storage.Tuple, r1Idx int, resIdx []int) error {
				g := gamma[idx*k : (idx+1)*k]
				for c := 0; c < k; c++ {
					nk[c] += g[c]
					linalg.Axpy(g[c], s.Features, sumMuParts[0][c])
					stats.Ops.AddAxpy(dS)
					wBlk[r1Idx*k+c] += g[c]
					for j, ri := range resIdx {
						wRes[j][ri*k+c] += g[c]
					}
				}
				idx++
				return nil
			},
			OnBlockEnd: func() error {
				for i, tp := range curBlock {
					for c := 0; c < k; c++ {
						linalg.Axpy(wBlk[i*k+c], tp.Features, sumMuParts[1][c])
						stats.Ops.AddAxpy(p.Dims[1])
					}
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		for j := 0; j < q-1; j++ {
			for t, tp := range ps.Resident(j) {
				for c := 0; c < k; c++ {
					linalg.Axpy(wRes[j][t*k+c], tp.Features, sumMuParts[2+j][c])
					stats.Ops.AddAxpy(p.Dims[2+j])
				}
			}
		}
		for c := 0; c < k; c++ {
			for i := range sumMuParts {
				copy(sumMuFull[c][p.Offs[i]:p.Offs[i]+p.Dims[i]], sumMuParts[i][c])
			}
		}
		collapsed := applyMeanUpdates(model, nk, sumMuFull, n)

		// M pass 2: variances. The dimension contribution factors per
		// group: Σ_n γ (x_R−µ)² = (Σ_{n∈group} γ)·(x_R−µ)².
		for c := 0; c < k; c++ {
			for i := range sumVarParts {
				linalg.VecZero(sumVarParts[i][c])
			}
		}
		wRes2 := make([][]float64, q-1)
		for j := 0; j < q-1; j++ {
			wRes2[j] = make([]float64, len(ps.Resident(j))*k)
		}
		idx = 0
		ps.Pass = "igmm.mstep_var"
		err = ps.Run(join.Callbacks{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(wBlk) < need {
					wBlk = make([]float64, need)
				}
				wBlk = wBlk[:need]
				linalg.VecZero(wBlk)
				curBlock = block
				return nil
			},
			OnMatch: func(s *storage.Tuple, r1Idx int, resIdx []int) error {
				g := gamma[idx*k : (idx+1)*k]
				for c := 0; c < k; c++ {
					mu := model.Means[c]
					sv := sumVarParts[0][c]
					gc := g[c]
					for i, v := range s.Features {
						pd := v - mu[i]
						sv[i] += gc * pd * pd
					}
					stats.Ops.AddDiagQuad(dS)
					wBlk[r1Idx*k+c] += gc
					for j, ri := range resIdx {
						wRes2[j][ri*k+c] += gc
					}
				}
				idx++
				return nil
			},
			OnBlockEnd: func() error {
				off := p.Offs[1]
				for i, tp := range curBlock {
					for c := 0; c < k; c++ {
						w := wBlk[i*k+c]
						mu := model.Means[c]
						sv := sumVarParts[1][c]
						for d2, v := range tp.Features {
							pd := v - mu[off+d2]
							sv[d2] += w * pd * pd
						}
						stats.Ops.AddDiagQuad(p.Dims[1])
					}
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		for j := 0; j < q-1; j++ {
			off := p.Offs[2+j]
			for t, tp := range ps.Resident(j) {
				for c := 0; c < k; c++ {
					w := wRes2[j][t*k+c]
					mu := model.Means[c]
					sv := sumVarParts[2+j][c]
					for d2, v := range tp.Features {
						pd := v - mu[off+d2]
						sv[d2] += w * pd * pd
					}
					stats.Ops.AddDiagQuad(p.Dims[2+j])
				}
			}
		}
		for c := 0; c < k; c++ {
			for i := range sumVarParts {
				copy(sumVarFull[c][p.Offs[i]:p.Offs[i]+p.Dims[i]], sumVarParts[i][c])
			}
		}
		applyDiagCovUpdates(model, nk, sumVarFull, collapsed, cfg.RegEps)

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
