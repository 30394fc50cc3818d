package nn

import (
	"slices"

	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// partCaches holds one direct dimension's cached forward quantities for
// one parameter state, one flat row per arena row: t = W0_part·x_part
// (nh0 wide), and — under layer-2 sharing — t3 = W1·f(t) (nh1 wide).
type partCaches struct {
	nh0, nh1 int
	t, t3    []float64
}

// row returns arena row i's t; row3 its t3.
func (pc *partCaches) row(i int) []float64  { return pc.t[i*pc.nh0 : (i+1)*pc.nh0] }
func (pc *partCaches) row3(i int) []float64 { return pc.t3[i*pc.nh1 : (i+1)*pc.nh1] }

// ensure sizes the caches for n arena rows.
func (pc *partCaches) ensure(n int, share bool) {
	pc.t = slices.Grow(pc.t[:0], n*pc.nh0)[:n*pc.nh0]
	if share {
		pc.t3 = slices.Grow(pc.t3[:0], n*pc.nh1)[:n*pc.nh1]
	}
}

// fwdCtx bundles the read-only state of the factorized forward pass, which
// the F-NN trainer calls once per joined tuple: caches[j] is direct
// dimension j's.
type fwdCtx struct {
	net    *Network
	share  bool
	caches []partCaches
	cBias  []float64
}

// forward computes the factorized forward pass for one joined tuple, whose
// partners sit at arena rows pos, in a's workspace and returns the network
// output.
func (fc *fwdCtx) forward(a *gradAcc, s *storage.Tuple, pos []int) float64 {
	net, ws := fc.net, a.ws
	if !fc.share {
		// §VI-A1: the match's cached partials, completed by ForwardFactorized.
		parts := a.parts[:0]
		for j, at := range pos {
			parts = append(parts, fc.caches[j].row(at))
		}
		a.parts = parts
		return net.ForwardFactorized(&ws.ForwardScratch, s.Features, parts)
	}
	// §VI-A2 layer-2 sharing (Identity activation):
	// T1 = W_S·x_S; a¹ = W1·f(T1) + Σ t3_m + (W1·b0 + b1).
	t1 := a.t1
	linalg.MatVecRange(t1, net.W[0], 0, s.Features)
	copy(ws.a[0], t1)
	for j, at := range pos {
		linalg.VecAdd(ws.a[0], ws.a[0], fc.caches[j].row(at))
	}
	linalg.VecAdd(ws.a[0], ws.a[0], net.B[0])
	copy(ws.h[0], ws.a[0]) // Identity
	// Second layer from shared parts.
	linalg.MatVec(ws.a[1], net.W[1], t1)
	for j, at := range pos {
		linalg.VecAdd(ws.a[1], ws.a[1], fc.caches[j].row3(at))
	}
	linalg.VecAdd(ws.a[1], ws.a[1], fc.cBias)
	return net.upper(&ws.ForwardScratch, 1)
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
	nh1 := 0
	if net.Layers() >= 2 {
		nh1 = net.Sizes[2]
	}
	share := cfg.ShareLayer2

	caches := make([]partCaches, q)
	for j := range caches {
		caches[j] = partCaches{nh0: nh0, nh1: nh1}
	}
	cBias := make([]float64, nh1)
	fc := &fwdCtx{net: net, share: share, caches: caches, cBias: cBias}
	// Charged × the events seen: tuples per fill, refills, matches per epoch.
	units := core.NewNNUnits(p, net.Sizes, share)

	// fill computes direct dimension j's partials for every arena row.
	fill := func(j int, rows join.Arena) error {
		pc := &caches[j]
		pc.ensure(rows.N, share)
		off := p.Offs[1+j]
		stats.Ops.Add(units.Fill[1+j].Scale(int64(rows.N)))
		return ps.FillCaches(nw, rows, func(i int, x []float64) error {
			net.PartialPreAct(pc.row(i), off, x)
			if share {
				// t3 = W1·f(t); f = Identity, so f(t) = t.
				linalg.MatVec(pc.row3(i), net.W[1], pc.row(i))
			}
			return nil
		})
	}
	fillShared := func() {
		if !share {
			return
		}
		// cBias = W1·b0 + b1 accounts for the layer-1 bias flowing through
		// the additive activation.
		linalg.MatVec(cBias, net.W[1], net.B[0])
		linalg.VecAdd(cBias, cBias, net.B[1])
		stats.Ops.Add(units.Refill)
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
					fillShared()
					residentFresh = true
				}
				return fill(0, dims[0])
			},
			NewAcc: func() gradAcc { return newGradAcc(net, nh0) },
			OnMatchChunk: func(a *gradAcc, matches []join.Match) error {
				// The chunk's joined rows are gathered beside its δ⁰s, so
				// the input-layer gradient (Eq. 29/32) is one ΔᵀX product
				// per chunk instead of one rank-1 update per part per match.
				a.xs = a.xs[:0]
				for _, m := range matches {
					a.backprop(fc.forward(a, m.S, m.Pos), m.S.Target)
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
