package nn

import (
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
)

// gradAcc is a chunk's gradient accumulator: a private workspace whose
// gW/gB fold the chunk's example gradients, plus loss/batch partials. The
// accumulators merge into the main workspace strictly in chunk order, so
// the parameter trajectory is bit-identical for every worker count.
//
// The input-layer weight gradient is not folded per example: backprop saves
// each example's δ⁰, and the dense trainer's inputGrad applies the chunk's
// ΔᵀX as one product. F-NN takes that product over the fact columns only,
// into factG, and leaves the dimension columns to its per-tuple sums
// (trainFactorized).
type gradAcc struct {
	ws     *workspace
	loss   float64
	batchN int
	deltas []float64 // δ⁰ of the examples since the last inputGrad (F-NN: merge), row-major

	// F-NN only.
	parts   [][]float64   // one match's cached layer-1 partials
	xs      []float64     // the chunk's fact features, row-major
	matches []join.Match  // the chunk's matches, for the merge
	factG   *linalg.Dense // the chunk's ΔᵀX over the fact columns, transposed: dS × nh0
}

func newGradAcc(net *Network) gradAcc { return gradAcc{ws: newWorkspace(net)} }

// backprop folds one example whose forward pass produced o: loss, the
// upper layers' gradients, the input-layer bias gradient, and δ⁰ saved for
// inputGrad.
func (a *gradAcc) backprop(o, y float64) {
	diff := o - y
	a.loss += 0.5 * diff * diff
	ws := a.ws
	ws.backward(o, y)
	linalg.Axpy(1, ws.delta[0], ws.gB[0])
	a.deltas = append(a.deltas, ws.delta[0]...)
	a.batchN++
}

// inputGrad adds the input-layer weight gradient Σ δ⁰ ⊗ xᵀ of the examples
// folded since the last call, xs holding their inputs row-major in the
// same order. Per element this is the sum the per-example rank-1 updates
// would make, in the same order (see linalg.OuterAccumRows).
func (a *gradAcc) inputGrad(xs []float64) {
	ws := a.ws
	linalg.OuterAccumRows(ws.gW[0], a.deltas, xs, len(a.deltas)/ws.net.Sizes[1])
	a.deltas = a.deltas[:0]
}

// mergeInto folds the chunk gradients and loss into the main workspace
// accumulators and leaves a zero for the chunk that refills it. An F-NN
// chunk's input-layer weights are factG, added into the fact columns.
func (a *gradAcc) mergeInto(w *workspace, lossSum *float64, batchN *int) {
	for l := range w.gW {
		if l == 0 && a.factG != nil {
			g := a.factG.Data()
			nh0 := len(w.gB[0])
			for h := 0; h < nh0; h++ {
				row := w.gW[0].Row(h)[:a.factG.Rows()]
				for k := range row {
					row[k] += g[k*nh0+h]
				}
			}
			a.factG.Zero()
		} else {
			w.gW[l].AddScaled(1, a.ws.gW[l])
			a.ws.gW[l].Zero()
		}
		linalg.VecAdd(w.gB[l], w.gB[l], a.ws.gB[l])
		linalg.VecZero(a.ws.gB[l])
	}
	*lossSum += a.loss
	*batchN += a.batchN
	a.loss, a.batchN = 0, 0
}

// trainDense is the engine of both M-NN and S-NN: standard backprop over a
// dense stream of joined tuples, one factor.RunSGDPass per epoch. The pass
// operator copies examples into fixed-size chunks (cut additionally at
// R1-block boundaries under Block updates, where the gradient step runs at
// a full barrier), workers fold each chunk into the gradAcc it carries, and the
// accumulators merge in chunk order, so the parameter trajectory is
// bit-identical for every cfg.NumWorkers value. shuffle, when non-nil, runs
// before every epoch's pass.
func trainDense(pass factor.GroupedScan, shuffle func(), cfg Config, net *Network, stats *Stats) error {
	nw := parallel.Workers(cfg.NumWorkers)
	d := net.Sizes[0]
	w := newWorkspace(net)
	perRow := core.NewNNUnits(core.NewPartition([]int{d}), net.Sizes).DenseRow

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if shuffle != nil {
			shuffle()
		}
		w.zeroGrads()
		lossSum := 0.0
		batchN, seen := 0, 0 // examples since the last step / this epoch
		step := func() error {
			w.applyStep(cfg.LearningRate, batchN)
			w.zeroGrads()
			seen += batchN
			batchN = 0
			return nil
		}
		err := factor.RunSGDPass("nn.sgd_epoch", nw, d, pass, cfg.Mode == Block, step, factor.PassHooks[gradAcc]{
			NewAcc: func() gradAcc { return newGradAcc(net) },
			Fold: func(a *gradAcc, _ int, rows, ys []float64, nr int) error {
				for i := 0; i < nr; i++ {
					a.backprop(net.forward(&a.ws.ForwardScratch, rows[i*d:(i+1)*d]), ys[i])
				}
				a.inputGrad(rows)
				return nil
			},
			Merge: func(a *gradAcc) error {
				a.mergeInto(w, &lossSum, &batchN)
				return nil
			},
		})
		if err != nil {
			return err
		}
		if cfg.Mode == Epoch {
			// No step has run, so batchN is the whole epoch: the examples
			// the join delivered, fewer than the fact table's rows when a
			// foreign key dangles.
			w.applyStep(cfg.LearningRate, batchN)
		}
		stats.Ops.Add(perRow.Scale(int64(seen + batchN)))
		if err := stats.endEpoch(lossSum, seen+batchN); err != nil {
			return err
		}
	}
	return nil
}
