package gmm

import (
	"math"
	"sync"
	"time"

	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// TrainF is the paper's F-GMM: EM where every pass streams the join and the
// per-tuple math is factorized across the relation partition. Quantities
// that depend only on a dimension tuple (PD_R, the LR quadratic term, the
// I_SR·PD_R cross vector, the per-group responsibility sums) are computed
// once per distinct dimension tuple per pass and reused for all matching
// fact tuples. The decomposition is exact (Eq. 7-24), so the result matches
// TrainM and TrainS.
func TrainF(db *storage.Database, spec *join.Spec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	io0 := db.Pool().Stats()

	ps, err := factor.NewPartScan(spec, cfg.BlockPages)
	if err != nil {
		return nil, err
	}

	// Initialization streams concatenated vectors in the same order as the
	// other algorithms, so all trainers start from the identical model.
	ps.Pass = "fgmm.init"
	pass := func(fn func(x []float64) error) error {
		return ps.Scan(func(x []float64, _ float64) error { return fn(x) })
	}
	model, n, err := initModel(pass, ps.P.D, cfg)
	if err != nil {
		return nil, err
	}

	res := &Result{Model: model}
	em := emFactorized
	if cfg.Diagonal {
		em = emFactorizedDiag
	}
	if err := em(ps, n, cfg, model, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.IO = db.Pool().Stats().Sub(io0)
	res.Stats.TrainTime = time.Since(start)
	return res, nil
}

// emFactorized runs the factorized EM loop over ps.Direct. Parts: 0 = S,
// 1 = the blocked first direct dimension, 2+j = resident direct dimension
// 1+j — each as wide as its subtree, whose columns its tuples carry.
//
// The E-step — the dimension-cache fills and the per-match responsibility
// computation — runs on the chunked worker pool (cfg.NumWorkers): caches
// fill over disjoint index grains, matches stream through RunParallel with
// per-chunk log-likelihood/γ buffers merged in chunk order, so the model is
// bit-identical for every worker count. The M-step passes stay sequential:
// factorization already collapses their per-tuple work to the small fact
// part plus per-group flushes.
func emFactorized(ps *factor.PartScan, n int, cfg Config, model *Model, stats *Stats) error {
	p := ps.Direct
	nw := parallel.Workers(cfg.NumWorkers)
	k := cfg.K
	q := p.Parts() - 1 // number of dimension relations
	dS := p.Dims[0]

	gamma := make([]float64, n*k)
	pds := make([]float64, dS)
	pdBuf := make([][]float64, q) // per-part PD pointers for cross terms

	// feAcc is the per-chunk E-step accumulator: responsibilities for the
	// chunk's matches plus the partial log-likelihood. caches[j] is the
	// K-component cache run of the match's tuple in dimension part j+1 —
	// a subslice of the flat per-block/per-resident cache arrays.
	type feAcc struct {
		ll     float64
		ops    core.Ops
		ng     int
		gamma  []float64
		logp   []float64
		pds    []float64
		caches [][]core.QuadCache
	}
	fePool := sync.Pool{New: func() any {
		return &feAcc{
			logp:   make([]float64, k),
			pds:    make([]float64, dS),
			caches: make([][]core.QuadCache, q),
		}
	}}

	nk := make([]float64, k)
	// Per-part mean accumulators, assembled into full vectors for the shared
	// update helper.
	sumMuParts := make([][][]float64, p.Parts())
	for i := range sumMuParts {
		sumMuParts[i] = make([][]float64, k)
		for c := 0; c < k; c++ {
			sumMuParts[i][c] = make([]float64, p.Dims[i])
		}
	}
	sumMuFull := make([][]float64, k)
	for c := 0; c < k; c++ {
		sumMuFull[c] = make([]float64, p.D)
	}

	// Reusable per-block buffers (sized on first block).
	var blkCache []core.QuadCache // E-step: len(block)*k
	var wBlk []float64            // M1: group responsibility sums
	var pdBlk [][]float64         // M2: PD per (block tuple, component)
	var wBlk2 []float64           // M2 group sums
	var gvecBlk [][]float64       // M2: Σ γ·PD_S per group
	var curBlock []*storage.Tuple // current R1 block, shared across callbacks

	// Per-iteration accumulators hoisted out of the EM loop (the resident
	// dimension tables are loaded by the init scan and their sizes are
	// fixed, so every buffer below is allocated once and recycled —
	// FillQuadCache and VecSub overwrite, the rest are zeroed in place).
	resCache := make([][]core.QuadCache, q-1) // E-step resident caches
	wRes := make([][]float64, q-1)            // M1 resident group sums
	pdRes := make([][][]float64, q-1)         // M2 resident PDs
	wRes2 := make([][]float64, q-1)           // M2 resident group sums
	gvecRes := make([][][]float64, q-1)       // M2 Σ γ·PD_S per resident group
	for j := 0; j < q-1; j++ {
		nt := len(ps.Resident(j))
		resCache[j] = make([]core.QuadCache, nt*k)
		wRes[j] = make([]float64, nt*k)
		wRes2[j] = make([]float64, nt*k)
		pdRes[j] = make([][]float64, nt*k)
		gvecRes[j] = make([][]float64, nt*k)
		dRj := p.Dims[2+j]
		for i := range pdRes[j] {
			pdRes[j][i] = make([]float64, dRj)
			gvecRes[j][i] = make([]float64, dS)
		}
	}
	acc := make([]*core.BlockedSym, k) // M2 covariance accumulators
	sumCov := make([]*linalg.Dense, k) // assembled Σ-update destinations
	for c := 0; c < k; c++ {
		acc[c] = core.NewBlockedZero(p)
		sumCov[c] = linalg.NewDense(p.D, p.D)
	}

	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		states, err := model.precompute(p, true)
		if err != nil {
			return err
		}
		hot := buildHot(model, p, states)

		// ------------------------------------------------------------------
		// E-step: factorized responsibilities (Eq. 7-12 / 19-21).
		// ------------------------------------------------------------------
		// Resident caches are filled once per iteration (parallel fill,
		// disjoint (tuple, component) slots).
		ps.Pass = "fgmm.estep"
		for j := 0; j < q-1; j++ {
			rj := resCache[j]
			part := 2 + j
			err = ps.FillCaches(nw, ps.Resident(j), &stats.Ops, func(t int, tp *storage.Tuple, ops *core.Ops) error {
				for c := 0; c < k; c++ {
					core.FillQuadCache(&rj[t*k+c], states[c].blocked, part, tp.Features, model.Means[c], ops)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}

		ll := 0.0
		idx := 0
		err = ps.RunChunks(nw, join.ParallelCallbacks{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(blkCache) < need {
					blkCache = make([]core.QuadCache, need)
				}
				blkCache = blkCache[:need]
				return ps.FillCaches(nw, block, &stats.Ops, func(i int, tp *storage.Tuple, ops *core.Ops) error {
					for c := 0; c < k; c++ {
						core.FillQuadCache(&blkCache[i*k+c], states[c].blocked, 1, tp.Features, model.Means[c], ops)
					}
					return nil
				})
			},
			NewState: func() any {
				a := fePool.Get().(*feAcc)
				a.ll, a.ops, a.ng = 0, core.Ops{}, 0
				a.gamma = a.gamma[:0]
				return a
			},
			OnMatchChunk: func(state any, matches []join.Match) error {
				a := state.(*feAcc)
				for _, m := range matches {
					a.caches[0] = blkCache[m.R1*k : (m.R1+1)*k]
					for j, ri := range m.Res {
						a.caches[1+j] = resCache[j][ri*k : (ri+1)*k]
					}
					hot.scoreRow(m.S.Features, a.caches, a.pds, a.logp, &a.ops)
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
				a := state.(*feAcc)
				copy(gamma[idx*k:(idx+a.ng)*k], a.gamma)
				idx += a.ng
				ll += a.ll
				stats.Ops.Add(a.ops)
				fePool.Put(a)
				return nil
			},
		})
		if err != nil {
			return err
		}

		// ------------------------------------------------------------------
		// M-step pass 1: means and weights (Eq. 13 / 22). The dimension
		// contribution Σ_n γ x_R factors into x_R · (Σ_{n∈group} γ).
		// ------------------------------------------------------------------
		for c := 0; c < k; c++ {
			nk[c] = 0
			for i := range sumMuParts {
				linalg.VecZero(sumMuParts[i][c])
			}
		}
		for j := 0; j < q-1; j++ {
			linalg.VecZero(wRes[j])
		}
		idx = 0
		ps.Pass = "fgmm.mstep_means"
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

		// ------------------------------------------------------------------
		// M-step pass 2: covariances (Eq. 14-18 / 23-24) with the new means.
		// Diagonal dimension blocks use the group trick
		//   Σ_n γ PD_R PD_Rᵀ = (Σ_{n∈group} γ) · PD_R PD_Rᵀ,
		// and the S-R cross blocks use
		//   Σ_n γ PD_S PD_Rᵀ = (Σ_{n∈group} γ PD_S) ⊗ PD_R.
		// Cross blocks between two dimension relations are accumulated per
		// joined tuple through the cached PDs (paper §V-C). Only the upper
		// blocks accumulate; AssembleInto mirrors them.
		// ------------------------------------------------------------------
		for c := 0; c < k; c++ {
			acc[c].Zero()
		}
		for j := 0; j < q-1; j++ {
			linalg.VecZero(wRes2[j])
			dRj := p.Dims[2+j]
			for t, tp := range ps.Resident(j) {
				for c := 0; c < k; c++ {
					linalg.VecSub(pdRes[j][t*k+c], tp.Features, p.Slice(model.Means[c], 2+j))
					stats.Ops.AddSub(dRj)
					linalg.VecZero(gvecRes[j][t*k+c])
				}
			}
		}

		idx = 0
		ps.Pass = "fgmm.mstep_cov"
		err = ps.Run(join.Callbacks{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(pdBlk) < need {
					pdBlk = make([][]float64, need)
					gvecBlk = make([][]float64, need)
				}
				pdBlk = pdBlk[:need]
				gvecBlk = gvecBlk[:need]
				if cap(wBlk2) < need {
					wBlk2 = make([]float64, need)
				}
				wBlk2 = wBlk2[:need]
				linalg.VecZero(wBlk2)
				dR1 := p.Dims[1]
				for i, tp := range block {
					for c := 0; c < k; c++ {
						if pdBlk[i*k+c] == nil {
							pdBlk[i*k+c] = make([]float64, dR1)
							gvecBlk[i*k+c] = make([]float64, dS)
						}
						linalg.VecSub(pdBlk[i*k+c], tp.Features, p.Slice(model.Means[c], 1))
						stats.Ops.AddSub(dR1)
						linalg.VecZero(gvecBlk[i*k+c])
					}
				}
				curBlock = block
				return nil
			},
			OnMatch: func(s *storage.Tuple, r1Idx int, resIdx []int) error {
				g := gamma[idx*k : (idx+1)*k]
				for c := 0; c < k; c++ {
					linalg.VecSub(pds, s.Features, p.Slice(model.Means[c], 0))
					stats.Ops.AddSub(dS)
					linalg.OuterAccum(acc[c].B[0][0], g[c], pds, pds)
					stats.Ops.AddOuter(dS, dS)
					wBlk2[r1Idx*k+c] += g[c]
					linalg.Axpy(g[c], pds, gvecBlk[r1Idx*k+c])
					stats.Ops.AddAxpy(dS)
					pdBuf[0] = pdBlk[r1Idx*k+c]
					for j, ri := range resIdx {
						wRes2[j][ri*k+c] += g[c]
						linalg.Axpy(g[c], pds, gvecRes[j][ri*k+c])
						stats.Ops.AddAxpy(dS)
						pdBuf[1+j] = pdRes[j][ri*k+c]
					}
					// Cross blocks between dimension relations (multi-way).
					for a := 0; a < q; a++ {
						for b := a + 1; b < q; b++ {
							linalg.OuterAccum(acc[c].B[1+a][1+b], g[c], pdBuf[a], pdBuf[b])
							stats.Ops.AddOuter(p.Dims[1+a], p.Dims[1+b])
						}
					}
				}
				idx++
				return nil
			},
			OnBlockEnd: func() error {
				dR1 := p.Dims[1]
				for i := range curBlock {
					for c := 0; c < k; c++ {
						pd := pdBlk[i*k+c]
						gv := gvecBlk[i*k+c]
						linalg.OuterAccum(acc[c].B[1][1], wBlk2[i*k+c], pd, pd)
						stats.Ops.AddOuter(dR1, dR1)
						linalg.OuterAccum(acc[c].B[0][1], 1, gv, pd)
						stats.Ops.AddOuter(dS, dR1)
					}
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		for j := 0; j < q-1; j++ {
			dRj := p.Dims[2+j]
			for t := range ps.Resident(j) {
				for c := 0; c < k; c++ {
					pd := pdRes[j][t*k+c]
					gv := gvecRes[j][t*k+c]
					linalg.OuterAccum(acc[c].B[2+j][2+j], wRes2[j][t*k+c], pd, pd)
					stats.Ops.AddOuter(dRj, dRj)
					linalg.OuterAccum(acc[c].B[0][2+j], 1, gv, pd)
					stats.Ops.AddOuter(dS, dRj)
				}
			}
		}
		for c := 0; c < k; c++ {
			acc[c].AssembleInto(sumCov[c])
		}
		applyCovUpdates(model, nk, sumCov, collapsed, cfg.RegEps)

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
