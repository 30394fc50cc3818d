package gmm

import (
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
)

// emFactorized runs the factorized EM loop over ps.Direct (F-GMM, and
// F-IGMM over a diagonal model). Parts: 0 = S, 1+j = direct dimension j —
// part 1 the blocked first one, the rest resident — each as wide as its
// subtree, whose columns its arena rows carry.
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
	q := p.Parts() - 1 // number of direct dimensions
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

	// Direct dimension j's K caches per arena row and its group sums:
	// refilled per block for the first, per pass for the resident ones;
	// allocated once and recycled.
	caches := make([][]core.QuadCache, q)
	sums := make([]GroupSums, q)
	for j := range sums {
		sums[j] = total.NewGroupSums()
	}

	// Charged × the events seen: tuples per fill and flush, matches per chunk.
	units := core.NewGMMUnits(p, k, diag)

	// flush folds dimension j's group sums in through its caches' PDs.
	flush := func(j int) error {
		stats.Ops.Add(units.Flush[1+j].Scale(int64(len(caches[j]) / k)))
		return total.FoldGroups(1+j, &sums[j], func(t int) ([]core.QuadCache, error) {
			return caches[j][t*k : (t+1)*k], nil
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

		// fill computes dimension j's K caches per arena row (parallel,
		// disjoint (row, component) slots) and zeroes its group sums.
		fill := func(j int, rows join.Arena) error {
			need := rows.N * k
			if cap(caches[j]) < need {
				caches[j] = make([]core.QuadCache, need)
			}
			caches[j] = caches[j][:need]
			sums[j].Reset(rows.N)
			stats.Ops.Add(units.Fill[1+j].Scale(int64(rows.N)))
			return ps.FillCaches(nw, rows, func(t int, x []float64) error {
				scorer.FillDimCaches(caches[j][t*k:(t+1)*k], 1+j, x, nil)
				return nil
			})
		}
		resident := false // the resident dimensions fill at the pass's first block

		score := scorer.score // the structure's kernel, picked once per pass
		err = factor.RunChunks(ps, nw, join.ParallelCallbacks[chunkAcc]{
			OnBlockStart: func(dims []join.Arena) error {
				for j := 1; j < q && !resident; j++ {
					if err := fill(j, dims[j]); err != nil {
						return err
					}
				}
				resident = true
				return fill(0, dims[0])
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
					for j, at := range m.Pos {
						a.caches[j] = caches[j][at*k : (at+1)*k]
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
					for j, at := range m.Pos {
						sums[j].Add(at, g, pds)
					}
					if q < 2 || diag {
						continue
					}
					// Cross blocks between dimension relations (multi-way).
					for j, at := range m.Pos {
						runs[j] = caches[j][at*k : (at+1)*k]
					}
					total.FoldCross(g, runs)
				}
				stats.Ops.Add(units.Match.Scale(int64(len(a.matches))))
				a.matches = nil
				a.rows.Zero()
				return nil
			},
			OnBlockEnd: func() error { return flush(0) },
		})
		if err != nil {
			return 0, err
		}
		for j := 1; j < q && resident; j++ {
			if err := flush(j); err != nil {
				return 0, err
			}
		}
		ll := total.LL()
		total.Step(model, n, cfg.RegEps)
		return ll, nil
	})
}
