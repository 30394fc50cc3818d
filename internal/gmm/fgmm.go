package gmm

import (
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// emFactorized runs the factorized EM loop over ps.Direct (F-GMM, and
// F-IGMM over a diagonal model). Parts: 0 = S, 1 = the blocked first direct
// dimension, 2+j = resident direct dimension 1+j — each as wide as its
// subtree, whose columns its tuples carry.
//
// An iteration is one pass over the join, into one Moments about its
// starting means. Cache fills and per-match scoring run on the chunked
// worker pool (cfg.NumWorkers); each chunk's worker folds its matches' fact
// parts from the PD_S the scorer has just formed. The merge, in chunk order
// (so the model is bit-identical for every worker count), adds γ and
// γ·PD_S to the matched tuples' group sums and the cross blocks between
// dimensions through the cached PDs (§V-C); each dimension tuple is folded
// in once, at its block's end or the pass's (Eq. 13–18 / 22–24). A
// diagonal model has no cross blocks.
func emFactorized(ps *factor.PartScan, n int, cfg Config, model *Model, stats *Stats) error {
	p := ps.Direct
	nw := parallel.Workers(cfg.NumWorkers)
	k := cfg.K
	q := p.Parts() - 1 // number of dimension relations
	dS := p.Dims[0]
	diag := model.Diagonal

	// chunkAcc is what a worker hands the merge for one chunk: the matches
	// (valid until the chunk is merged), their responsibilities and K
	// fact-part deviations each, and the chunk's folded rows. caches[j] is
	// the current match's cache run in dimension part j+1.
	type chunkAcc struct {
		matches []join.Match
		gamma   []float64
		pds     []float64
		logp    []float64
		caches  [][]core.QuadCache
		rows    *Moments
	}

	total := NewMoments(p, k, diag)
	runs := make([][]core.QuadCache, q) // a match's cache run per dimension part, for the cross blocks

	// The first direct dimension's caches and sums are per block; the
	// resident dimensions are loaded by the init scan, so theirs are
	// allocated once and recycled.
	var blkCache []core.QuadCache
	blk := total.NewGroupSums()
	resCache := make([][]core.QuadCache, q-1)
	res := make([]GroupSums, q-1)
	for j := range resCache {
		resCache[j] = make([]core.QuadCache, len(ps.Resident(j))*k)
		res[j] = total.NewGroupSums()
	}

	// Charged × the events seen: tuples per fill and flush, matches per chunk.
	units := core.NewGMMUnits(p, k, diag)

	// flush folds a dimension part's group sums in through its caches' PDs.
	flush := func(part int, caches []core.QuadCache, g *GroupSums) error {
		stats.Ops.Add(units.Flush[part].Scale(int64(len(caches) / k)))
		return total.FoldGroups(part, g, func(t int) ([]core.QuadCache, error) {
			return caches[t*k : (t+1)*k], nil
		})
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
		total.Reset(model.Means)

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
			res[j].Reset(len(ps.Resident(j)))
			if err := fill(2+j, ps.Resident(j), resCache[j]); err != nil {
				return 0, err
			}
		}

		score := scorer.score // the structure's kernel, picked once per pass
		err = factor.RunChunks(ps, nw, join.ParallelCallbacks[chunkAcc]{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(blkCache) < need {
					blkCache = make([]core.QuadCache, need)
				}
				blkCache = blkCache[:need]
				blk.Reset(len(block))
				return fill(1, block, blkCache)
			},
			NewAcc: func() chunkAcc {
				return chunkAcc{
					gamma:  make([]float64, join.ParallelChunkRows*k),
					pds:    make([]float64, join.ParallelChunkRows*k*dS),
					logp:   make([]float64, k),
					caches: make([][]core.QuadCache, q),
					rows:   NewMoments(p, k, diag),
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
					a.rows.AddLL(linalg.SoftmaxLSE(g, a.logp))
				}
				a.rows.FoldRows(a.gamma, a.pds, len(matches))
				return nil
			},
			OnChunkMerged: func(a *chunkAcc) error {
				total.Add(a.rows)
				for i, m := range a.matches {
					g := a.gamma[i*k : (i+1)*k]
					pds := a.pds[i*k*dS : (i+1)*k*dS]
					blk.Add(m.R1, g, pds)
					for j, ri := range m.Res {
						res[j].Add(ri, g, pds)
					}
					if q < 2 || diag {
						continue
					}
					// Cross blocks between dimension relations (multi-way).
					runs[0] = blkCache[m.R1*k : (m.R1+1)*k]
					for j, ri := range m.Res {
						runs[1+j] = resCache[j][ri*k : (ri+1)*k]
					}
					total.FoldCross(g, runs)
				}
				stats.Ops.Add(units.Match.Scale(int64(len(a.matches))))
				a.matches = nil
				a.rows.Zero()
				return nil
			},
			OnBlockEnd: func() error {
				return flush(1, blkCache, &blk)
			},
		})
		if err != nil {
			return 0, err
		}
		for j := 0; j < q-1; j++ {
			if err := flush(2+j, resCache[j], &res[j]); err != nil {
				return 0, err
			}
		}
		ll := total.LL()
		total.Step(model, n, cfg.RegEps)
		return ll, nil
	})
}
