package nn

import (
	"fmt"
	"math"

	"factorml/internal/linalg"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

const (
	// Sigmoid is σ(a) = 1/(1+e^{-a}).
	Sigmoid Activation = iota
	// Tanh is the hyperbolic tangent.
	Tanh
	// ReLU is max(0, a).
	ReLU
	// Identity is f(a) = a.
	Identity
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	case Identity:
		return "identity"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Apply computes f(v) element-wise into dst (dst may alias v).
func (a Activation) Apply(dst, v []float64) {
	switch a {
	case Sigmoid:
		dst = dst[:len(v)]
		for i, x := range v {
			dst[i] = -x
		}
		linalg.ExpInto(dst, dst)
		for i, e := range dst {
			dst[i] = 1 / (1 + e)
		}
	case Tanh:
		for i, x := range v {
			dst[i] = math.Tanh(x)
		}
	case ReLU:
		for i, x := range v {
			if x > 0 {
				dst[i] = x
			} else {
				dst[i] = 0
			}
		}
	case Identity:
		copy(dst, v)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}
