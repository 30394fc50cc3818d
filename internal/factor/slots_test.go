package factor

import (
	"slices"
	"testing"
)

// touchAll carves ords in order and writes each row's ordinal into it.
func touchAll(s *Slots, ords ...int) {
	for _, t := range ords {
		row := s.Slot(t)
		for i := range row {
			row[i] += float64(t)
		}
	}
}

func TestSlotsPositionsFollowFirstTouch(t *testing.T) {
	s := Slots{Width: 2}
	s.Reset(10, 10)
	for i, ord := range []int{7, 2, 7, 9, 2, 0} {
		at, fresh := s.Touch(ord)
		want, wantFresh := map[int]int{7: 0, 2: 1, 9: 2, 0: 3}[ord], i != 2 && i != 4
		if at != want || fresh != wantFresh {
			t.Fatalf("touch %d of ordinal %d: position %d fresh %v, want %d %v", i, ord, at, fresh, want, wantFresh)
		}
	}
	var ords []int
	for ord, row := range s.ByTouch() {
		ords = append(ords, ord)
		if at, _ := s.Touch(ord); &s.Row(at)[0] != &row[0] {
			t.Fatalf("ordinal %d: ByTouch yields a row other than its position's", ord)
		}
	}
	if !slices.Equal(ords, []int{7, 2, 9, 0}) {
		t.Fatalf("ByTouch yields %v, want first-touch order [7 2 9 0]", ords)
	}
}

func TestSlotsByOrdinalSkipsUntouched(t *testing.T) {
	s := Slots{Width: 3}
	s.Reset(8, 8)
	touchAll(&s, 5, 1, 6, 1)
	var ords []int
	for ord, row := range s.ByOrdinal() {
		ords = append(ords, ord)
		want := float64(ord)
		if ord == 1 {
			want = 2 // touched twice
		}
		if !slices.Equal(row, []float64{want, want, want}) {
			t.Fatalf("ordinal %d's row %v, want %v thrice", ord, row, want)
		}
	}
	if !slices.Equal(ords, []int{1, 5, 6}) {
		t.Fatalf("ByOrdinal yields %v, want [1 5 6]", ords)
	}
}

func TestSlotsResetZeroesTouchedRows(t *testing.T) {
	s := Slots{Width: 4}
	s.Reset(6, 6)
	touchAll(&s, 3, 4, 5)
	s.Reset(6, 6)
	for range s.ByOrdinal() {
		t.Fatal("a reset map still yields a touched ordinal")
	}
	// The rows come back zero at every position the last pass used, and
	// the buffer past them was never written.
	for _, ord := range []int{0, 5, 1, 2, 4, 3} {
		if row := s.Slot(ord); slices.ContainsFunc(row, func(v float64) bool { return v != 0 }) {
			t.Fatalf("ordinal %d carved a row %v after Reset, want zeros", ord, row)
		}
	}
	// Fewer ordinals and rows than before: the untouched index stays clear.
	touchAll(&s, 0, 1)
	s.Reset(2, 1)
	if at, fresh := s.Touch(1); at != 0 || !fresh || s.Row(0)[0] != 0 {
		t.Fatalf("after a shrinking Reset ordinal 1 is at %d (fresh %v) holding %v", at, fresh, s.Row(0))
	}
}

func TestSlotsRowsDoNotMove(t *testing.T) {
	s := Slots{Width: 5}
	const n = 64
	s.Reset(n, n)
	first := s.Slot(n - 1)
	first[0] = 42
	for ord := 0; ord < n-1; ord++ {
		touchAll(&s, ord)
	}
	if &s.Row(0)[0] != &first[0] || s.Row(0)[0] != 42 {
		t.Fatal("Row(0) moved or changed while the map carved up to its capacity")
	}
}

func TestSlotsSecondPassReusesBuffer(t *testing.T) {
	s := Slots{Width: 3}
	s.Reset(100, 50)
	touchAll(&s, 9, 8, 7)
	row0 := &s.Row(0)[0]
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset(100, 50)
		touchAll(&s, 1, 2, 3)
	})
	if allocs != 0 {
		t.Fatalf("a pass over a reset map allocates %.0f times, want 0", allocs)
	}
	if &s.Row(0)[0] != row0 {
		t.Fatal("a reset map carved its rows from a new buffer")
	}
	// Drop frees the rows and keeps the index.
	idx := s.IndexBytes()
	s.Drop()
	if s.IndexBytes() != idx || idx != 4*int64(cap(s.pos)) || s.buf != nil {
		t.Fatalf("after Drop the index holds %d bytes (was %d) and the buffer %d floats", s.IndexBytes(), idx, len(s.buf))
	}
	s.Reset(100, 2)
	if at, fresh := s.Touch(9); at != 0 || !fresh {
		t.Fatalf("after Drop ordinal 9 is at %d (fresh %v), want a fresh position 0", at, fresh)
	}
}
