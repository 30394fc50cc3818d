package nn

import (
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// partCaches holds per-dimension-tuple cached forward quantities for one
// parameter state: t = W0_part·x_part (length nh0), and — under layer-2
// sharing — t3 = W1·f(t) (length nh1).
type partCaches struct {
	t  [][]float64
	t3 [][]float64
}

// fwdCtx bundles the read-only state of the factorized forward pass, which
// the F-NN trainer calls once per joined tuple.
type fwdCtx struct {
	net      *Network
	share    bool
	blkCache *partCaches
	resCache []*partCaches
	cBias    []float64
}

// forward computes the factorized forward pass for one joined tuple in a's
// workspace and returns the network output.
func (fc *fwdCtx) forward(a *gradAcc, s *storage.Tuple, r1 int, res []int) float64 {
	net, ws := fc.net, a.ws
	if !fc.share {
		// §VI-A1: the match's cached partials, completed by ForwardFactorized.
		parts := append(a.parts[:0], fc.blkCache.t[r1])
		for j, ri := range res {
			parts = append(parts, fc.resCache[j].t[ri])
		}
		a.parts = parts
		return net.ForwardFactorized(&ws.ForwardScratch, s.Features, parts)
	}
	// §VI-A2 layer-2 sharing (Identity activation):
	// T1 = W_S·x_S; a¹ = W1·f(T1) + Σ t3_m + (W1·b0 + b1).
	t1 := a.t1
	linalg.MatVecRange(t1, net.W[0], 0, s.Features)
	copy(ws.a[0], t1)
	linalg.VecAdd(ws.a[0], ws.a[0], fc.blkCache.t[r1])
	for j, ri := range res {
		linalg.VecAdd(ws.a[0], ws.a[0], fc.resCache[j].t[ri])
	}
	linalg.VecAdd(ws.a[0], ws.a[0], net.B[0])
	copy(ws.h[0], ws.a[0]) // Identity
	// Second layer from shared parts.
	linalg.MatVec(ws.a[1], net.W[1], t1)
	linalg.VecAdd(ws.a[1], ws.a[1], fc.blkCache.t3[r1])
	for j, ri := range res {
		linalg.VecAdd(ws.a[1], ws.a[1], fc.resCache[j].t3[ri])
	}
	linalg.VecAdd(ws.a[1], ws.a[1], fc.cBias)
	return net.upper(&ws.ForwardScratch, 1)
}

func (pc *partCaches) ensure(n, nh0, nh1 int, share bool) {
	if cap(pc.t) < n {
		pc.t = make([][]float64, n)
		pc.t3 = make([][]float64, n)
	}
	pc.t = pc.t[:n]
	pc.t3 = pc.t3[:n]
	for i := 0; i < n; i++ {
		if pc.t[i] == nil {
			pc.t[i] = make([]float64, nh0)
		}
		if share && pc.t3[i] == nil {
			pc.t3[i] = make([]float64, nh1)
		}
	}
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

	var blkCache partCaches
	resCache := make([]*partCaches, q-1)
	for j := range resCache {
		resCache[j] = &partCaches{}
	}
	cBias := make([]float64, nh1)
	fc := &fwdCtx{net: net, share: share, blkCache: &blkCache, resCache: resCache, cBias: cBias}
	// Charged × the events seen: tuples per fill, refills, matches per epoch.
	units := core.NewNNUnits(p, net.Sizes, share)

	fillPart := func(pc *partCaches, tuples []*storage.Tuple, part int) error {
		pc.ensure(len(tuples), nh0, nh1, share)
		off := p.Offs[part]
		stats.Ops.Add(units.Fill[part].Scale(int64(len(tuples))))
		return ps.FillCaches(nw, tuples, func(i int, tp *storage.Tuple) error {
			net.PartialPreAct(pc.t[i], off, tp.Features)
			if share {
				// t3 = W1·f(t); f = Identity, so f(t) = t.
				linalg.MatVec(pc.t3[i], net.W[1], pc.t[i])
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
		var curBlock []*storage.Tuple

		err := factor.RunChunks(ps, nw, join.ParallelCallbacks[gradAcc]{
			OnBlockStart: func(block []*storage.Tuple) error {
				curBlock = block
				// Dimension caches are valid for one parameter state: per
				// block under Block updates, per pass under Epoch updates.
				if cfg.Mode == Block || !residentFresh {
					for j := 0; j < q-1; j++ {
						if err := fillPart(resCache[j], ps.Resident(j), 2+j); err != nil {
							return err
						}
					}
					fillShared()
					residentFresh = true
				}
				return fillPart(&blkCache, block, 1)
			},
			NewAcc: func() gradAcc { return newGradAcc(net, nh0) },
			OnMatchChunk: func(a *gradAcc, matches []join.Match) error {
				// The chunk's joined rows are gathered beside its δ⁰s, so
				// the input-layer gradient (Eq. 29/32) is one ΔᵀX product
				// per chunk instead of one rank-1 update per part per match.
				a.xs = a.xs[:0]
				for _, m := range matches {
					s := m.S
					a.backprop(fc.forward(a, s, m.R1, m.Res), s.Target)
					a.xs = ps.Runner.AppendRow(a.xs, s, curBlock[m.R1], m.Res)
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
