package nn

import (
	"slices"

	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/parallel"
)

// partCaches holds one direct dimension's cached layer-1 partials for one
// parameter state, t = W0_part·x_part, one nh0-wide flat row per arena row.
type partCaches struct {
	nh0 int
	t   []float64
}

// row returns arena row i's t.
func (pc *partCaches) row(i int) []float64 { return pc.t[i*pc.nh0 : (i+1)*pc.nh0] }

// ensure sizes the caches for n arena rows.
func (pc *partCaches) ensure(n int) {
	pc.t = slices.Grow(pc.t[:0], n*pc.nh0)[:n*pc.nh0]
}

// trainFactorized is F-NN on the worker pool: the per-block dimension
// caches fill over disjoint grains, matches stream through the parallel
// join probe in fixed chunks, each chunk folds its example gradients into
// the gradAcc it carries, and the accumulators merge in chunk order — so the
// parameter trajectory is bit-identical for every cfg.NumWorkers value.
// Cache refills and Block-mode gradient steps happen at full barriers.
// shuffle, when non-nil, runs before every epoch's pass.
func trainFactorized(ps *factor.PartScan, shuffle func(), cfg Config, net *Network, stats *Stats) error {
	ps.Pass = "fnn.sgd"
	p := ps.Direct
	nw := parallel.Workers(cfg.NumWorkers)
	w := newWorkspace(net)
	q := p.Parts() - 1
	nh0 := net.Sizes[1]

	caches := make([]partCaches, q)
	for j := range caches {
		caches[j] = partCaches{nh0: nh0}
	}
	// Charged × the events seen: tuples per fill, matches per epoch.
	units := core.NewNNUnits(p, net.Sizes)

	// fill computes direct dimension j's partials for every arena row.
	fill := func(j int, rows join.Arena) error {
		pc := &caches[j]
		pc.ensure(rows.N)
		off := p.Offs[1+j]
		stats.Ops.Add(units.Fill[1+j].Scale(int64(rows.N)))
		return ps.FillCaches(nw, rows, func(i int, x []float64) error {
			net.PartialPreAct(pc.row(i), off, x)
			return nil
		})
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if shuffle != nil {
			shuffle()
		}
		w.zeroGrads()
		lossSum := 0.0
		batchN, seen := 0, 0 // examples since the last step / this epoch
		residentFresh := false

		err := factor.RunChunks(ps, nw, join.ParallelCallbacks[gradAcc]{
			OnBlockStart: func(dims []join.Arena) error {
				// Dimension caches are valid for one parameter state: per
				// block under Block updates, per pass under Epoch updates.
				if cfg.Mode == Block || !residentFresh {
					for j := 1; j < q; j++ {
						if err := fill(j, dims[j]); err != nil {
							return err
						}
					}
					residentFresh = true
				}
				return fill(0, dims[0])
			},
			NewAcc: func() gradAcc { return newGradAcc(net) },
			OnMatchChunk: func(a *gradAcc, matches []join.Match) error {
				// The chunk's joined rows are gathered beside its δ⁰s, so
				// the input-layer gradient (Eq. 29/32) is one ΔᵀX product
				// per chunk instead of one rank-1 update per part per match.
				a.xs = a.xs[:0]
				for _, m := range matches {
					// §VI-A1: the match's cached partials, completed by
					// ForwardFactorized as the serving engine completes them.
					parts := a.parts[:0]
					for j, at := range m.Pos {
						parts = append(parts, caches[j].row(at))
					}
					a.parts = parts
					a.backprop(net.ForwardFactorized(&a.ws.ForwardScratch, m.S.Features, parts), m.S.Target)
					a.xs = ps.Runner.AppendRow(a.xs, m.S, m.Pos)
				}
				a.inputGrad(a.xs)
				return nil
			},
			OnChunkMerged: func(a *gradAcc) error {
				a.mergeInto(w, &lossSum, &batchN)
				return nil
			},
			OnBlockEnd: func() error {
				if cfg.Mode == Block {
					w.applyStep(cfg.LearningRate, batchN)
					w.zeroGrads()
					seen += batchN
					batchN = 0
					residentFresh = false
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		if cfg.Mode == Epoch {
			w.applyStep(cfg.LearningRate, batchN) // the rows the join kept, as in trainDense
		}
		stats.Ops.Add(units.Match.Scale(int64(seen + batchN)))
		if err := stats.endEpoch(lossSum, seen+batchN); err != nil {
			return err
		}
	}
	return nil
}
