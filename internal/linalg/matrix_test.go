package linalg

import (
	"math"
	"testing"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims() = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseDataWraps(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := NewDenseData(2, 3, d)
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 42)
	if d[0] != 42 {
		t.Fatalf("backing slice not shared: d[0] = %v", d[0])
	}
}

func TestNewDenseDataBadLength(t *testing.T) {
	defer expectPanic(t, "length mismatch")
	NewDenseData(2, 3, []float64{1, 2, 3})
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer expectPanic(t, "index out of bounds")
	NewDense(2, 2).At(2, 0)
}

func TestSetOutOfBoundsPanics(t *testing.T) {
	defer expectPanic(t, "index out of bounds")
	NewDense(2, 2).Set(0, -1, 1)
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatalf("Row must be a view, got At(1,0)=%v", m.At(1, 0))
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	n := m.Clone()
	n.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatalf("Clone aliased original: m(0,0)=%v", m.At(0, 0))
	}
}

func TestAddScaled(t *testing.T) {
	a := NewDenseData(1, 3, []float64{1, 1, 1})
	b := NewDenseData(1, 3, []float64{1, 2, 3})
	a.AddScaled(0.5, b)
	want := []float64{1.5, 2, 2.5}
	for i, w := range want {
		if a.Data()[i] != w {
			t.Fatalf("AddScaled: data[%d]=%v, want %v", i, a.Data()[i], w)
		}
	}
}

func TestAddDiag(t *testing.T) {
	a := Eye(3)
	a.AddDiag(2)
	for i := 0; i < 3; i++ {
		if a.At(i, i) != 3 {
			t.Fatalf("AddDiag: At(%d,%d)=%v, want 3", i, i, a.At(i, i))
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.Transpose()
	r, c := mt.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("Transpose dims = (%d,%d), want (3,2)", r, c)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatalf("Transpose values wrong: %v", mt)
	}
}

func TestBlockAndSetBlock(t *testing.T) {
	m := NewDenseData(3, 3, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	b := m.Block(1, 1, 2, 2)
	want := NewDenseData(2, 2, []float64{5, 6, 8, 9})
	if !b.Equalish(want, 0) {
		t.Fatalf("Block = %v, want %v", b, want)
	}
	b.Set(0, 0, 0)
	if m.At(1, 1) != 5 {
		t.Fatalf("Block aliases its matrix: %v", m)
	}
}

func TestBlockOutOfBoundsPanics(t *testing.T) {
	defer expectPanic(t, "out of bounds block")
	NewDense(2, 2).Block(1, 1, 2, 2)
}

func TestEyeAndDiag(t *testing.T) {
	if Eye(2).At(0, 1) != 0 || Eye(2).At(1, 1) != 1 {
		t.Fatal("Eye wrong")
	}
	d := Diag([]float64{3, 4})
	if d.At(0, 0) != 3 || d.At(1, 1) != 4 || d.At(0, 1) != 0 {
		t.Fatal("Diag wrong")
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 3, 5, 2})
	m.Symmetrize()
	if m.At(0, 1) != 4 || m.At(1, 0) != 4 {
		t.Fatalf("Symmetrize: off-diagonals %v, %v, want 4", m.At(0, 1), m.At(1, 0))
	}
}

func TestMaxAbsDiffAndEqualish(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := NewDenseData(1, 2, []float64{1.5, 2})
	if got := a.MaxAbsDiff(b); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", got)
	}
	if !a.Equalish(b, 0.5) {
		t.Fatal("Equalish(0.5) = false, want true")
	}
	if a.Equalish(b, 0.4) {
		t.Fatal("Equalish(0.4) = true, want false")
	}
	if a.Equalish(NewDense(2, 2), 10) {
		t.Fatal("Equalish across shapes must be false")
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
