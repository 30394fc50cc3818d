package gmm

import (
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// groupSums are the per-dimension-tuple sums of one direct dimension: the
// ordered chunk merge scatters every match into its tuple's slot, and a
// flush folds each slot into the iteration's moments once per tuple — the
// group trick of Eq. 13–18 / 22–24. For tuple t and component c,
// w[t·K+c] = Σγ over the tuple's matches and, under a full covariance,
// gv[(t·K+c)·dS : …+dS] = Σγ·PD_S (a diagonal one has no cross blocks and
// leaves gv empty).
type groupSums struct {
	w  []float64
	gv []float64
}

// reset sizes the sums for slots (tuple, component) pairs, gvWidth wide
// each in gv, and zeroes them.
func (g *groupSums) reset(slots, gvWidth int) {
	if cap(g.w) < slots {
		g.w = make([]float64, slots)
		g.gv = make([]float64, slots*gvWidth)
	}
	g.w, g.gv = g.w[:slots], g.gv[:slots*gvWidth]
	linalg.VecZero(g.w)
	linalg.VecZero(g.gv)
}

// scatter adds one match's K responsibilities and K fact-part deviations
// (end to end, as the chunk states store them) to tuple t's sums.
func (g *groupSums) scatter(t int, gamma, pds []float64) {
	k := len(gamma)
	w := g.w[t*k : (t+1)*k]
	if len(g.gv) == 0 {
		for c, gc := range gamma {
			w[c] += gc
		}
		return
	}
	dS := len(pds) / k
	gv := g.gv[t*k*dS : (t+1)*k*dS]
	for c, gc := range gamma {
		w[c] += gc
		linalg.AxpyN(gc, pds[c*dS:], gv[c*dS:], dS)
	}
}

// emFactorized runs the factorized EM loop over ps.Direct (F-GMM, and
// F-IGMM over a diagonal model). Parts: 0 = S, 1 = the blocked first direct
// dimension, 2+j = resident direct dimension 1+j — each as wide as its
// subtree, whose columns its tuples carry.
//
// An iteration is one pass over the join. The dimension-cache fills and
// the per-match scoring run on the chunked worker pool (cfg.NumWorkers):
// caches fill over disjoint index grains; each chunk's worker computes its
// matches' responsibilities and folds the fact part's moments from the
// PD_S the scorer has just formed. The ordered chunk merge then scatters
// γ and γ·PD_S into the matched dimension tuples' group sums and adds the
// dimension–dimension cross blocks through the cached PDs (§V-C); every
// dimension tuple is flushed into the moments once, at its block's end or
// the pass's (Eq. 13–18 / 22–24 — about the iteration's starting means,
// see moments). Chunks merge in chunk order, so the model is bit-identical
// for every worker count. The fills and scores are the iteration's Scorer;
// a diagonal model has no cross blocks, so it differs in what a flush folds
// (γ·PD²), in skipping the cross blocks and in the final assembly.
func emFactorized(ps *factor.PartScan, n int, cfg Config, model *Model, stats *Stats) error {
	p := ps.Direct
	nw := parallel.Workers(cfg.NumWorkers)
	k := cfg.K
	q := p.Parts() - 1 // number of dimension relations
	dS := p.Dims[0]
	diag := model.Diagonal
	gvWidth := dS // of a tuple's Σγ·PD_S, which only the S–R cross block needs
	if diag {
		gvWidth = 0
	}

	// chunkAcc is what a worker hands the merge for one chunk: the matches
	// (valid until the chunk is merged), their responsibilities and K
	// fact-part deviations each, and the fact part's share of the moments.
	// caches[j] is the K-component cache run of the current match's tuple
	// in dimension part j+1 — a subslice of the flat per-block/per-resident
	// cache arrays.
	type chunkAcc struct {
		ll      float64
		matches []join.Match
		gamma   []float64
		pds     []float64
		logp    []float64
		caches  [][]core.QuadCache
		fact    moments
	}

	total := newMoments(k, p.D, diag) // assembled at the end of each pass
	fact := newMoments(k, dS, diag)   // its fact columns, merged per chunk
	var acc []*core.BlockedSym        // second-moment blocks, upper only; a diagonal model has none
	for c := 0; c < k && !diag; c++ {
		acc = append(acc, core.NewBlockedZero(p))
	}
	pdBuf := make([][]float64, q) // a match's PD per dimension part

	// The first direct dimension's caches and sums are per block; the
	// resident dimensions are loaded by the init scan, so theirs are
	// allocated once and recycled.
	var blkCache []core.QuadCache
	var blk groupSums
	resCache := make([][]core.QuadCache, q-1)
	res := make([]groupSums, q-1)
	for j := range resCache {
		resCache[j] = make([]core.QuadCache, len(ps.Resident(j))*k)
	}

	// Charged × the events seen: tuples per fill and flush, matches per chunk.
	units := core.NewGMMUnits(p, k, diag)

	// flush folds one dimension part's group sums into the moments:
	//   Σ_n γ PD_R       = (Σ_{n∈group} γ) · PD_R
	//   Σ_n γ PD_R PD_Rᵀ = (Σ_{n∈group} γ) · PD_R PD_Rᵀ   (its diagonal alone for a diagonal model)
	//   Σ_n γ PD_S PD_Rᵀ = (Σ_{n∈group} γ PD_S) ⊗ PD_R
	flush := func(part int, caches []core.QuadCache, g *groupSums) {
		for i := range caches {
			c := i % k
			pd := caches[i].PD
			linalg.Axpy(g.w[i], pd, p.Slice(total.s1[c], part))
			if diag {
				foldDiag(p.Slice(total.s2[c].Row(0), part), g.w[i], pd)
				continue
			}
			linalg.SyrkAccum(acc[c].B[part][part], g.w[i], pd)
			linalg.OuterAccum(acc[c].B[0][part], 1, g.gv[i*dS:(i+1)*dS], pd)
		}
		stats.Ops.Add(units.Flush[part].Scale(int64(len(caches) / k)))
	}

	ps.Pass = "fgmm.em"
	if diag {
		ps.Pass = "figmm.em"
	}
	return runEM(cfg, stats, func() (float64, error) {
		scorer, err := model.NewScorer(p)
		if err != nil {
			return 0, err
		}
		total.zero()
		fact.zero()
		for c := range acc {
			acc[c].Zero()
		}

		// fill computes a dimension part's K caches per tuple (parallel,
		// disjoint (tuple, component) slots); the resident parts' once per
		// iteration.
		fill := func(part int, tuples []*storage.Tuple, dst []core.QuadCache) error {
			stats.Ops.Add(units.Fill[part].Scale(int64(len(tuples))))
			return ps.FillCaches(nw, tuples, func(t int, tp *storage.Tuple) error {
				scorer.FillDimCaches(dst[t*k:(t+1)*k], part, tp.Features, nil)
				return nil
			})
		}
		for j := 0; j < q-1; j++ {
			res[j].reset(len(resCache[j]), gvWidth)
			if err := fill(2+j, ps.Resident(j), resCache[j]); err != nil {
				return 0, err
			}
		}

		score := scorer.score // the structure's kernel, picked once per pass
		ll := 0.0
		err = factor.RunChunks(ps, nw, join.ParallelCallbacks[chunkAcc]{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(blkCache) < need {
					blkCache = make([]core.QuadCache, need)
				}
				blkCache = blkCache[:need]
				blk.reset(need, gvWidth)
				return fill(1, block, blkCache)
			},
			NewAcc: func() chunkAcc {
				return chunkAcc{
					gamma:  make([]float64, join.ParallelChunkRows*k),
					pds:    make([]float64, join.ParallelChunkRows*k*dS),
					logp:   make([]float64, k),
					caches: make([][]core.QuadCache, q),
					fact:   newMoments(k, dS, diag),
				}
			},
			// E-step (Eq. 7-12 / 19-21) and the fact part's moments.
			OnMatchChunk: func(a *chunkAcc, matches []join.Match) error {
				a.matches = matches
				for i, m := range matches {
					a.caches[0] = blkCache[m.R1*k : (m.R1+1)*k]
					for j, ri := range m.Res {
						a.caches[1+j] = resCache[j][ri*k : (ri+1)*k]
					}
					g := a.gamma[i*k : (i+1)*k]
					pds := a.pds[i*k*dS : (i+1)*k*dS]
					score(m.S.Features, a.caches, pds, a.logp)
					a.ll += linalg.SoftmaxLSE(g, a.logp)
				}
				a.fact.foldRows(a.gamma, a.pds, len(matches))
				return nil
			},
			OnChunkMerged: func(a *chunkAcc) error {
				ll += a.ll
				fact.add(&a.fact)
				for i, m := range a.matches {
					g := a.gamma[i*k : (i+1)*k]
					pds := a.pds[i*k*dS : (i+1)*k*dS]
					blk.scatter(m.R1, g, pds)
					for j, ri := range m.Res {
						res[j].scatter(ri, g, pds)
					}
					if q < 2 || diag {
						continue
					}
					// Cross blocks between dimension relations (multi-way).
					for c, gc := range g {
						pdBuf[0] = blkCache[m.R1*k+c].PD
						for j, ri := range m.Res {
							pdBuf[1+j] = resCache[j][ri*k+c].PD
						}
						for r1 := 0; r1 < q; r1++ {
							for r2 := r1 + 1; r2 < q; r2++ {
								linalg.OuterAccum(acc[c].B[1+r1][1+r2], gc, pdBuf[r1], pdBuf[r2])
							}
						}
					}
				}
				stats.Ops.Add(units.Match.Scale(int64(len(a.matches))))
				a.ll, a.matches = 0, nil
				a.fact.zero()
				return nil
			},
			OnBlockEnd: func() error {
				flush(1, blkCache, &blk)
				return nil
			},
		})
		if err != nil {
			return 0, err
		}
		for j := 0; j < q-1; j++ {
			flush(2+j, resCache[j], &res[j])
		}

		// Assemble the joined-width moments: the fact columns from the
		// chunk merges, the dimension columns and blocks from the flushes.
		copy(total.nk, fact.nk)
		for c := 0; c < k; c++ {
			copy(total.s1[c], fact.s1[c])
			if diag {
				copy(total.s2[c].Row(0), fact.s2[c].Row(0))
				continue
			}
			acc[c].B[0][0].CopyFrom(fact.s2[c])
			acc[c].AssembleInto(total.s2[c])
		}
		total.update(model, n, cfg.RegEps)
		return ll, nil
	})
}
