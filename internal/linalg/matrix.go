package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps the given backing slice (row-major, length r*c) without
// copying. The caller must not alias the slice unexpectedly.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the underlying row-major backing slice.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// AddScaled adds a*b into m element-wise.
func (m *Dense) AddScaled(a float64, b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: addScaled dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	for i, v := range b.data {
		m.data[i] += a * v
	}
}

// AddDiag adds a to every diagonal element of the (square) matrix.
func (m *Dense) AddDiag(a float64) {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: AddDiag on non-square %dx%d matrix", m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] += a
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// Block copies the r×c sub-matrix whose top-left corner is (i0, j0) into a
// new matrix.
func (m *Dense) Block(i0, j0, r, c int) *Dense {
	if i0 < 0 || j0 < 0 || r < 0 || c < 0 || i0+r > m.rows || j0+c > m.cols {
		panic(fmt.Sprintf("linalg: block (%d,%d,%d,%d) out of bounds for %dx%d matrix", i0, j0, r, c, m.rows, m.cols))
	}
	out := NewDense(r, c)
	for i := 0; i < r; i++ {
		copy(out.Row(i), m.data[(i0+i)*m.cols+j0:(i0+i)*m.cols+j0+c])
	}
	return out
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with v on its diagonal.
func Diag(v []float64) *Dense {
	m := NewDense(len(v), len(v))
	for i, x := range v {
		m.data[i*len(v)+i] = x
	}
	return m
}

// Symmetrize overwrites m with (m + mᵀ)/2. m must be square.
func (m *Dense) Symmetrize() {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: Symmetrize on non-square %dx%d matrix", m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := 0.5 * (m.data[i*m.cols+j] + m.data[j*m.cols+i])
			m.data[i*m.cols+j] = v
			m.data[j*m.cols+i] = v
		}
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and b. Dimensions must match.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: diff dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	max := 0.0
	for i, v := range m.data {
		d := math.Abs(v - b.data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Equalish reports whether all elements of m and b differ by at most tol.
func (m *Dense) Equalish(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	return m.MaxAbsDiff(b) <= tol
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}
