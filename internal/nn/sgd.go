package nn

import (
	"slices"

	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
)

// partCaches holds one direct dimension's cached layer-1 partials
// W0_part·x_part of the current parameter state, one nh0-wide row per arena
// row.
type partCaches struct {
	nh0 int
	t   []float64
}

// row returns arena row i's partials.
func (pc *partCaches) row(i int) []float64 { return pc.t[i*pc.nh0 : (i+1)*pc.nh0] }

// ensure sizes the caches for n arena rows.
func (pc *partCaches) ensure(n int) { pc.t = slices.Grow(pc.t[:0], n*pc.nh0)[:n*pc.nh0] }

// sgd is the one SGD driver, over ps.Direct: the per-block dimension
// caches fill over disjoint grains, matches stream through the parallel
// join probe in fixed chunks, each chunk folds its example gradients into
// the gradAcc it carries, and the accumulators merge in chunk order — so the
// parameter trajectory is bit-identical for every cfg.NumWorkers value.
// Cache refills, flushes and Block-mode gradient steps happen at full
// barriers. shuffle, when non-nil, runs before every epoch's pass. A path
// that factorizes no dimension (M, S) has q = 0: the fact part is the whole
// joined row, and there is nothing to fill, sum or flush per tuple — plain
// backprop.
//
// The input-layer weight gradient is factorized per dimension tuple (the
// sum Σ_n δ⁰_n·x_nᵀ regrouped by the tuples the matches join): a chunk
// takes ΔᵀX over the fact columns only, and the merge adds each match's δ⁰
// into its tuple's sum in every direct dimension. A dimension flushes one
// outer product per touched tuple into its columns before the step reads
// them: R1 (dims[0]) at its block's end, the resident dimensions at the
// step — the pass end under Epoch updates, the block end under Block.
func sgd(ps *factor.PartScan, shuffle func(), cfg Config, net *Network, stats *Stats) error {
	ps.Pass = "nn.sgd"
	p := ps.Direct
	nw := parallel.Workers(cfg.NumWorkers)
	w := newWorkspace(net, true)
	q := p.Parts() - 1
	nh0 := net.Sizes[1]

	caches := make([]partCaches, q)
	sums := make([]factor.Slots, q) // per direct dimension, (Σδ⁰)_t of the δ⁰s merged since its last flush
	for j := range caches {
		caches[j] = partCaches{nh0: nh0}
		sums[j].Width = nh0
	}
	arenas := make([]join.Arena, q) // what each dimension's caches were filled over
	// Charged × the events seen: tuples per fill and flush, matches per epoch.
	units := core.NewNNUnits(p, net.Sizes)

	// fill computes direct dimension j's partials for every arena row and
	// empties its sums.
	fill := func(j int, rows join.Arena) error {
		pc := &caches[j]
		pc.ensure(rows.N)
		sums[j].Reset(rows.N, rows.N)
		arenas[j] = rows
		off := p.Offs[1+j]
		stats.Ops.Add(units.Fill[1+j].Scale(int64(rows.N)))
		return ps.FillCaches(nw, rows, func(i int, x []float64) error {
			net.PartialPreAct(pc.row(i), off, x)
			return nil
		})
	}
	// flush adds direct dimension j's input-layer gradient into w's
	// columns, Σ_t (Σδ⁰)_t ⊗ x_t over the touched tuples in first-touch
	// order, x_t the tuple's arena row.
	flush := func(j int) {
		stats.Ops.Add(units.Flush[1+j].Scale(int64(arenas[j].N)))
		for t, g := range sums[j].ByTouch() {
			linalg.OuterAccumAt(w.gW[0], p.Offs[1+j], g, arenas[j].Row(t))
		}
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
				for j := range dims {
					if j > 0 && cfg.Mode == Epoch && residentFresh {
						break
					}
					if err := fill(j, dims[j]); err != nil {
						return err
					}
				}
				residentFresh = true
				return nil
			},
			NewAcc: func() gradAcc { return newGradAcc(net, p.Dims[0]) },
			OnMatchChunk: func(a *gradAcc, matches []join.Match) error {
				a.matches = matches
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
					a.xs = append(a.xs, m.S.Features...)
				}
				// The fact columns' ΔᵀX_S, kept dS × nh0 so that the inner
				// loop runs over the hidden units.
				linalg.OuterAccumRows(a.factG, a.xs, a.deltas, len(matches))
				return nil
			},
			OnChunkMerged: func(a *gradAcc) error {
				for n, m := range a.matches {
					delta := a.deltas[n*nh0 : (n+1)*nh0]
					for j, at := range m.Pos {
						g := sums[j].Slot(at)
						linalg.VecAdd(g, g, delta)
					}
				}
				a.matches, a.deltas = nil, a.deltas[:0]
				a.mergeInto(w, &lossSum, &batchN)
				return nil
			},
			OnBlockEnd: func() error {
				if q > 0 {
					flush(0)
				}
				if cfg.Mode == Block {
					for j := 1; j < q; j++ {
						flush(j)
					}
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
			if residentFresh {
				for j := 1; j < q; j++ {
					flush(j)
				}
			}
			w.applyStep(cfg.LearningRate, batchN) // the rows the join kept
		}
		stats.Ops.Add(units.Match.Scale(int64(seen + batchN)))
		if err := stats.endEpoch(lossSum, seen+batchN); err != nil {
			return err
		}
	}
	return nil
}
