package nn

import (
	"factorml/internal/join"
	"factorml/internal/linalg"
)

// workspace holds the per-tuple forward/backward buffers and the gradient
// accumulators shared by all trainers: the forward pass runs in the
// embedded ForwardScratch, whose pre-activations and activations backward
// reads. Buffers are allocated once, so the training loops run
// allocation-free.
type workspace struct {
	net *Network
	ForwardScratch

	delta [][]float64

	gW []*linalg.Dense
	gB [][]float64
}

// newWorkspace allocates a workspace. Without inputW its gW[0] is nil: a
// chunk's workspace (newGradAcc) never writes the input-layer weight
// gradient, which backward leaves to the caller.
func newWorkspace(net *Network, inputW bool) *workspace {
	w := &workspace{net: net, ForwardScratch: *net.NewForwardScratch()}
	for l := 0; l < net.Layers(); l++ {
		sz := net.Sizes[l+1]
		w.delta = append(w.delta, make([]float64, sz))
		var gW *linalg.Dense
		if l > 0 || inputW {
			gW = linalg.NewDense(sz, net.Sizes[l])
		}
		w.gW = append(w.gW, gW)
		w.gB = append(w.gB, make([]float64, sz))
	}
	return w
}

func (w *workspace) zeroGrads() {
	for l := range w.gW {
		w.gW[l].Zero()
		linalg.VecZero(w.gB[l])
	}
}

// applyStep performs W -= (lr/batchN)·gW, B -= (lr/batchN)·gB.
func (w *workspace) applyStep(lr float64, batchN int) {
	if batchN == 0 {
		return
	}
	scale := -lr / float64(batchN)
	for l := range w.gW {
		w.net.W[l].AddScaled(scale, w.gW[l])
		linalg.Axpy(scale, w.gB[l], w.net.B[l])
	}
}

// backward propagates the error for one example with output o and target y,
// accumulating the gradients of every layer except the input layer's
// weights/bias, which the caller handles (per chunk of examples, see
// gradAcc.inputGrad). It leaves δ⁰ in w.delta[0].
func (w *workspace) backward(o, y float64) {
	net := w.net
	last := net.Layers() - 1
	w.delta[last][0] = o - y
	for l := last; l >= 1; l-- {
		// Gradients of layer l (weights see h[l-1]).
		linalg.OuterAccum(w.gW[l], 1, w.delta[l], w.h[l-1])
		linalg.Axpy(1, w.delta[l], w.gB[l])
		// δ^{l-1} = (W_lᵀ δ^l) ⊙ f'(a^{l-1}).
		linalg.VecMat(w.delta[l-1], w.delta[l], net.W[l])
		applyDerivInPlace(net.Act, w.delta[l-1], w.a[l-1], w.h[l-1])
	}
}

// applyDerivInPlace multiplies delta by f'(a) element-wise.
func applyDerivInPlace(act Activation, delta, a, h []float64) {
	switch act {
	case Sigmoid:
		for i := range delta {
			delta[i] *= h[i] * (1 - h[i])
		}
	case Tanh:
		for i := range delta {
			delta[i] *= 1 - h[i]*h[i]
		}
	case ReLU:
		for i := range delta {
			if a[i] <= 0 {
				delta[i] = 0
			}
		}
	case Identity:
		// derivative 1
	}
}

// gradAcc is a chunk's gradient accumulator: a private workspace (with no
// input-layer gW) whose gB and upper-layer gW fold the chunk's example
// gradients, plus loss/batch partials. The accumulators merge into the
// main workspace strictly in chunk order, so the parameter trajectory is
// bit-identical for every worker count.
//
// The input-layer weight gradient is not folded per example: backprop saves
// each example's δ⁰, the chunk takes ΔᵀX over the fact columns as one
// product into factG, and the merge adds each δ⁰ into the sums of the
// dimension tuples the example joins (sgd).
type gradAcc struct {
	ws     *workspace
	loss   float64
	batchN int
	deltas []float64 // δ⁰ of the chunk's examples, row-major

	parts   [][]float64   // one match's cached layer-1 partials
	xs      []float64     // the chunk's fact features, row-major
	matches []join.Match  // the chunk's matches, for the merge
	factG   *linalg.Dense // the chunk's ΔᵀX over the fact columns, transposed: dS × nh0
}

func newGradAcc(net *Network, dS int) gradAcc {
	return gradAcc{ws: newWorkspace(net, false), factG: linalg.NewDense(dS, net.Sizes[1])}
}

// backprop folds one example whose forward pass produced o: loss, the
// upper layers' gradients, the input-layer bias gradient, and δ⁰ saved for
// the input-layer weight gradient.
func (a *gradAcc) backprop(o, y float64) {
	diff := o - y
	a.loss += 0.5 * diff * diff
	ws := a.ws
	ws.backward(o, y)
	linalg.Axpy(1, ws.delta[0], ws.gB[0])
	a.deltas = append(a.deltas, ws.delta[0]...)
	a.batchN++
}

// mergeInto folds the chunk gradients and loss into the main workspace
// accumulators and leaves a zero for the chunk that refills it. The
// input-layer weights are factG, added into the fact columns.
func (a *gradAcc) mergeInto(w *workspace, lossSum *float64, batchN *int) {
	g, nh0 := a.factG.Data(), len(w.gB[0])
	for h := 0; h < nh0; h++ {
		row := w.gW[0].Row(h)[:a.factG.Rows()]
		for k := range row {
			row[k] += g[k*nh0+h]
		}
	}
	a.factG.Zero()
	for l := range w.gW {
		if l > 0 {
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
