package nn

import "factorml/internal/linalg"

// workspace holds the per-tuple forward/backward buffers and the gradient
// accumulators shared by all trainers. Buffers are allocated once, so the
// training loops run allocation-free.
type workspace struct {
	net *Network

	a     [][]float64 // pre-activations, a[l] has length Sizes[l+1]
	h     [][]float64 // activations (output layer stays linear)
	delta [][]float64

	gW []*linalg.Dense
	gB [][]float64
}

func newWorkspace(net *Network) *workspace {
	w := &workspace{net: net}
	for l := 0; l < net.Layers(); l++ {
		sz := net.Sizes[l+1]
		w.a = append(w.a, make([]float64, sz))
		w.h = append(w.h, make([]float64, sz))
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

// forwardDense computes the full forward pass for one input, storing
// pre-activations and activations, and returns the scalar output.
func (w *workspace) forwardDense(x []float64) float64 {
	net := w.net
	linalg.MatVec(w.a[0], net.W[0], x)
	linalg.VecAdd(w.a[0], w.a[0], net.B[0])
	net.Act.Apply(w.h[0], w.a[0])
	return w.forwardUpper(1)
}

// forwardUpper continues the forward pass from layer `from` (assuming
// a[from-1] and h[from-1] are set) and returns the output.
func (w *workspace) forwardUpper(from int) float64 {
	net := w.net
	for l := from; l < net.Layers(); l++ {
		linalg.MatVec(w.a[l], net.W[l], w.h[l-1])
		linalg.VecAdd(w.a[l], w.a[l], net.B[l])
		if l < net.Layers()-1 {
			net.Act.Apply(w.h[l], w.a[l])
		} else {
			copy(w.h[l], w.a[l]) // linear output
		}
	}
	return w.h[net.Layers()-1][0]
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
