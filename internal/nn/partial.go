package nn

import (
	"fmt"

	"factorml/internal/linalg"
)

// This file holds the network's one forward pass. Layer 1 comes in two
// forms: dense (forward: W0·x + b⁰, for Predict) and factorized (§VI-A1:
// PartialPreAct per dimension tuple, completed per fact tuple by
// ForwardFactorized, for the trainer — over no parts at all when nothing
// is factorized — and the serving engine, internal/serve, which caches the
// partials per dimension tuple). Both end
// in the same loop over the upper layers (upper). The factorized
// accumulation order is fixed (the layer-1 bias, then the dimension parts
// in relation order, then the fact part), so the output for a given tuple
// is bit-identical regardless of worker count or cache state.

// HiddenWidth returns the width of the first hidden layer (Sizes[1]), the
// length of every layer-1 partial pre-activation.
func (n *Network) HiddenWidth() int { return n.Sizes[1] }

// PartialPreAct computes the layer-1 pre-activation contribution of one
// relation part: dst = W0[:, off:off+len(x)]·x, where x is the part's
// feature sub-vector and off its column offset within the joined feature
// vector. dst must have length HiddenWidth(). This is the quantity the
// factorized trainers cache once per dimension tuple (the t_m of §VI-A1);
// it is a pure function of (network, off, x).
func (n *Network) PartialPreAct(dst []float64, off int, x []float64) {
	if len(dst) != n.Sizes[1] {
		panic(fmt.Sprintf("nn: partial pre-activation length %d, want %d", len(dst), n.Sizes[1]))
	}
	linalg.MatVecRange(dst, n.W[0], off, x)
}

// ForwardScratch holds one goroutine's forward-pass buffers, so the
// serving hot path performs no per-row allocation. Obtain one per worker
// via NewForwardScratch. The trainers' workspace embeds one: backprop reads
// the pre-activations and activations the forward pass leaves here.
type ForwardScratch struct {
	a [][]float64 // pre-activations, a[l] has length Sizes[l+1]
	h [][]float64 // activations of the hidden layers (h[l] for l < Layers()-1)
}

// NewForwardScratch allocates scratch sized for this network.
func (n *Network) NewForwardScratch() *ForwardScratch {
	return &ForwardScratch{a: n.layerBuffers(), h: n.layerBuffers()[:n.Layers()-1]}
}

// layerBuffers returns one buffer per layer l, Sizes[l+1] long, carved from
// a single allocation.
func (n *Network) layerBuffers() [][]float64 {
	width := 0
	for _, s := range n.Sizes[1:] {
		width += s
	}
	buf := make([]float64, width)
	out := make([][]float64, n.Layers())
	for l := range out {
		s := n.Sizes[l+1]
		out[l], buf = buf[:s:s], buf[s:]
	}
	return out
}

// forward is the dense forward pass, a⁰ = W0·x + b⁰, then the upper
// layers. Predict runs it.
func (n *Network) forward(fs *ForwardScratch, x []float64) float64 {
	linalg.MatVec(fs.a[0], n.W[0], x)
	linalg.VecAdd(fs.a[0], fs.a[0], n.B[0])
	return n.upper(fs)
}

// upper is the one loop over the layers above the input: given the
// layer-1 pre-activation a[0], it activates each hidden layer into h and
// computes the next layer's pre-activation, and returns the output, which
// stays linear.
func (n *Network) upper(fs *ForwardScratch) float64 {
	last := n.Layers() - 1
	for l := 0; l < last; l++ {
		n.Act.Apply(fs.h[l], fs.a[l])
		linalg.MatVec(fs.a[l+1], n.W[l+1], fs.h[l])
		linalg.VecAdd(fs.a[l+1], fs.a[l+1], n.B[l+1])
	}
	return fs.a[last][0]
}

// ForwardFactorized completes a forward pass from cached per-relation
// partials: parts holds one PartialPreAct result per dimension relation (in
// relation order) and xs is the fact tuple's feature sub-vector at column
// offset 0. The layer-1 pre-activation is accumulated in a fixed order —
// b⁰, + each part, + W0_S·x_S — then the upper layers run in fs's buffers,
// and the scalar network output is returned. The F-NN trainer's forward pass is
// this call over its cached partials. The result is exact: it equals
// Predict over the assembled joined vector up to floating-point summation
// order.
func (n *Network) ForwardFactorized(fs *ForwardScratch, xs []float64, parts [][]float64) float64 {
	if len(fs.a) != n.Layers() {
		panic(fmt.Sprintf("nn: scratch has %d layers, network %d", len(fs.a), n.Layers()))
	}
	a0 := fs.a[0]
	copy(a0, n.B[0])
	for _, t := range parts {
		linalg.VecAdd(a0, a0, t)
	}
	linalg.MatVecRangeAdd(a0, n.W[0], 0, xs)
	return n.upper(fs)
}
