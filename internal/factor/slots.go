package factor

import "iter"

// Slots map tuple ordinals 0…n−1 to rows of Width floats: the per-tuple
// state of one pass or one block — the factorized trainers' group sums
// (F-GMM's Σγ and Σγ·PD_S, F-NN's Σδ⁰) and the stream's per-pass scoring
// caches. A tuple's row is carved, zeroed, when it is first touched, at the
// next position of one buffer sized by Reset, so no row moves while a pass
// holds views into it: a producer may carve while workers read the rows it
// carved before. ByOrdinal and ByTouch walk the touched rows in ordinal or
// in first-touch order, whichever the caller's reduction needs.
type Slots struct {
	Width int       // floats per row
	pos   []int32   // 1 + ordinal t's position; 0 while t is untouched
	ords  []int32   // the ordinal at each position, in first-touch order
	buf   []float64 // the rows end to end; zero past the carved ones
}

// Reset drops every row and sizes the map for ordinals 0…n−1 with room for
// maxRows rows. It zeroes only the rows touched since the last Reset, and
// keeps the index and the buffer while they fit.
func (s *Slots) Reset(n, maxRows int) {
	for _, t := range s.ords {
		s.pos[t] = 0
	}
	clear(s.buf[:len(s.ords)*s.Width])
	s.ords = s.ords[:0]
	if n <= cap(s.pos) {
		s.pos = s.pos[:n]
	} else {
		s.pos = append(s.pos[:cap(s.pos)], make([]int32, n-cap(s.pos))...)
	}
	if cap(s.ords) < maxRows {
		s.ords = make([]int32, 0, maxRows)
	}
	if need := maxRows * s.Width; need <= cap(s.buf) {
		s.buf = s.buf[:need]
	} else {
		s.buf = make([]float64, need)
	}
}

// Drop drops every row and frees the buffer, keeping the ordinal index
// sized: what a map kept between passes holds.
func (s *Slots) Drop() {
	s.Reset(len(s.pos), 0)
	s.ords, s.buf = nil, nil
}

// Touch returns ordinal t's position, carving its row at the next one on
// t's first touch; fresh reports that it did.
func (s *Slots) Touch(t int) (at int, fresh bool) {
	if p := s.pos[t]; p > 0 {
		return int(p) - 1, false
	}
	at = len(s.ords)
	s.ords = append(s.ords, int32(t))
	s.pos[t] = int32(at + 1)
	return at, true
}

// Slot returns ordinal t's row, carving it on first touch.
func (s *Slots) Slot(t int) []float64 {
	at, _ := s.Touch(t)
	return s.Row(at)
}

// Row returns the row at position at.
func (s *Slots) Row(at int) []float64 {
	return s.buf[at*s.Width : (at+1)*s.Width : (at+1)*s.Width]
}

// ByOrdinal yields every touched ordinal and its row, in ordinal order.
func (s *Slots) ByOrdinal() iter.Seq2[int, []float64] {
	return func(yield func(int, []float64) bool) {
		for t, p := range s.pos {
			if p > 0 && !yield(t, s.Row(int(p)-1)) {
				return
			}
		}
	}
}

// ByTouch yields every touched ordinal and its row, in first-touch order.
func (s *Slots) ByTouch() iter.Seq2[int, []float64] {
	return func(yield func(int, []float64) bool) {
		for at, t := range s.ords {
			if !yield(int(t), s.Row(at)) {
				return
			}
		}
	}
}

// IndexBytes returns the bytes the ordinal index holds, 4 per ordinal of
// its capacity: all a map holds after Drop.
func (s *Slots) IndexBytes() int64 { return int64(4 * cap(s.pos)) }
