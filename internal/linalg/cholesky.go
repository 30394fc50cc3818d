package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization is
// attempted on a matrix that is not (numerically) symmetric positive
// definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l *Dense // lower triangular, upper part zero
}

// NewCholesky factorizes the symmetric positive definite matrix a.
// Only the lower triangle of a is read.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("linalg: Cholesky of non-square %dx%d matrix", a.rows, a.cols))
	}
	n := a.rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			li := l.Row(i)
			lj := l.Row(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// L returns the lower-triangular factor (a view; do not modify).
func (c *Cholesky) L() *Dense { return c.l }

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += Log(c.l.At(i, i))
	}
	return 2 * s
}

// SolveVec solves A·x = b in place into dst (dst may alias b).
func (c *Cholesky) SolveVec(dst, b []float64) {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("linalg: cholesky solve length mismatch n=%d b=%d dst=%d", c.n, len(b), len(dst)))
	}
	copy(dst, b)
	// Forward substitution: L·y = b.
	for i := 0; i < c.n; i++ {
		row := c.l.Row(i)
		s := dst[i]
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
	// Back substitution: Lᵀ·x = y.
	for i := c.n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * dst[k]
		}
		dst[i] = s / c.l.At(i, i)
	}
}

// Inverse returns A⁻¹ as a newly allocated symmetric matrix.
func (c *Cholesky) Inverse() *Dense {
	inv := NewDense(c.n, c.n)
	e := make([]float64, c.n)
	col := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		VecZero(e)
		e[j] = 1
		c.SolveVec(col, e)
		for i := 0; i < c.n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	inv.Symmetrize()
	return inv
}

// SPDInverse factorizes a and returns its inverse and log-determinant.
func SPDInverse(a *Dense) (inv *Dense, logDet float64, err error) {
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, 0, err
	}
	return ch.Inverse(), ch.LogDet(), nil
}
