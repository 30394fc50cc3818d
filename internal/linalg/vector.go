package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// VecAdd computes dst = x + y.
func VecAdd(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(fmt.Sprintf("linalg: add length mismatch %d, %d, %d", len(dst), len(x), len(y)))
	}
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// VecSub computes dst = x - y.
func VecSub(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(fmt.Sprintf("linalg: sub length mismatch %d, %d, %d", len(dst), len(x), len(y)))
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// VecScale computes dst = a*x.
func VecScale(dst []float64, a float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("linalg: scale length mismatch %d vs %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] = a * v
	}
}

// VecZero sets every element of x to zero.
func VecZero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// MaxAbsDiffVec returns the largest absolute element-wise difference.
func MaxAbsDiffVec(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: diff length mismatch %d vs %d", len(x), len(y)))
	}
	max := 0.0
	for i, v := range x {
		d := math.Abs(v - y[i])
		if d > max {
			max = d
		}
	}
	return max
}

// LogSumExp returns log(Σ exp(x_i)) computed stably: x − max, ExpInto,
// then the sum in order — bit for bit SoftmaxLSE's value. It allocates
// nothing: the exponentials go through a 64-wide buffer on the stack.
func LogSumExp(x []float64) float64 {
	max, ok := lseMax(x)
	if !ok {
		return max
	}
	var buf [64]float64
	var s float64
	for len(x) > 0 {
		e := buf[:min(len(x), len(buf))]
		for i := range e {
			e[i] = x[i] - max
		}
		ExpInto(e, e)
		for _, v := range e {
			s += v
		}
		x = x[len(e):]
	}
	return max + Log(s)
}

// lseMax returns the largest of x, and false when the sum of exponentials
// is 0 — x empty or every element −Inf — so that the log-sum-exp is max.
func lseMax(x []float64) (float64, bool) {
	if len(x) == 0 {
		return math.Inf(-1), false
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	return max, !math.IsInf(max, -1)
}

// SoftmaxLSE returns LogSumExp(x) — bit for bit — and fills dst with the
// normalized exponentials dst[i] = exp(x[i]−max)/Σ exp(x[j]−max) from the
// exponentials that sum has already taken, so a mixture's responsibilities
// cost one exp per component instead of two. When every x[i] is −Inf no
// component claims the point and dst is uniform.
func SoftmaxLSE(dst, x []float64) float64 {
	dst = dst[:len(x)]
	max, ok := lseMax(x)
	if !ok {
		for i := range dst {
			dst[i] = 1 / float64(len(x))
		}
		return max
	}
	for i, v := range x {
		dst[i] = v - max
	}
	ExpInto(dst, dst)
	var s float64
	for _, e := range dst {
		s += e
	}
	for i := range dst {
		dst[i] /= s
	}
	return max + Log(s)
}
