package nn

import "factorml/internal/linalg"

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

func newWorkspace(net *Network) *workspace {
	w := &workspace{net: net, ForwardScratch: *net.NewForwardScratch()}
	for l := 0; l < net.Layers(); l++ {
		sz := net.Sizes[l+1]
		w.delta = append(w.delta, make([]float64, sz))
		w.gW = append(w.gW, linalg.NewDense(sz, net.Sizes[l]))
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
