package monitor

import (
	"fmt"
	"math"

	"factorml/internal/linalg"
)

// Sketch is an online summary of a single numeric column: exact
// count/mean/variance/min/max moments (Welford) plus a fixed-bin
// histogram with explicit underflow and overflow bins. Observing a
// value is O(1) and allocation-free; two sketches over the same bin
// layout merge exactly, which is what lets a refresh fold the live
// window into the baseline without rescanning the dataset.
//
// Bins[0] counts values below Lo, Bins[len-1] counts values at or
// above Hi, and the len(Bins)-2 interior bins split [Lo, Hi) evenly.
// The zero Sketch (no bins) is a valid moments-only sketch.
type Sketch struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"` // sum of squared deviations from the mean
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Lo    float64 `json:"lo"` // lower edge of the interior histogram range
	Hi    float64 `json:"hi"` // upper edge of the interior histogram range
	Bins  []int64 `json:"bins,omitempty"`
}

// DefaultBins is the interior histogram resolution of every captured
// baseline. Ten interior bins is the classic PSI decile setup.
const DefaultBins = 10

// NewSketch returns an empty sketch whose interior histogram splits
// [lo, hi) into bins equal cells. A degenerate range (hi <= lo, e.g. a
// constant column) is widened by one unit so every observation lands in
// a well-defined bin.
func NewSketch(lo, hi float64, bins int) *Sketch {
	if !(hi > lo) { // also catches NaN
		hi = lo + 1
	}
	return &Sketch{Lo: lo, Hi: hi, Min: 0, Max: 0, Bins: make([]int64, bins+2)}
}

// EmptyCopy returns a zeroed sketch sharing the receiver's bin layout —
// the live-window counterpart of a baseline sketch, so PSI compares
// like with like.
func (s *Sketch) EmptyCopy() *Sketch {
	c := &Sketch{Lo: s.Lo, Hi: s.Hi}
	if len(s.Bins) > 0 {
		c.Bins = make([]int64, len(s.Bins))
	}
	return c
}

// Observe folds one value into the sketch: O(1), no allocations. A value
// that would make a moment or the bin position non-finite — NaN, ±Inf, or
// one so far from the mean that its squared deviation overflows — is
// skipped: one bad row must not poison the sketch, or the lineage JSON
// it is saved into.
func (s *Sketch) Observe(x float64) {
	delta := x - s.Mean
	mean := s.Mean + delta/float64(s.Count+1)
	m2 := s.M2 + delta*(x-mean)
	if !finite(delta*delta) || !finite(m2) {
		return
	}
	bin := -1
	if n := len(s.Bins); n > 0 {
		switch {
		case x < s.Lo:
			bin = 0
		case x >= s.Hi:
			bin = n - 1
		default:
			f := float64(n-2) * (x - s.Lo) / (s.Hi - s.Lo)
			if !finite(f) {
				return
			}
			bin = 1 + min(int(f), n-3) // guard float rounding at the upper edge
		}
	}
	s.Count++
	if s.Count == 1 || x < s.Min {
		s.Min = x
	}
	if s.Count == 1 || x > s.Max {
		s.Max = x
	}
	s.Mean, s.M2 = mean, m2
	if bin >= 0 {
		s.Bins[bin]++
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Merge folds o into s exactly: the merged moments equal those of
// observing both input streams, and same-layout histograms add
// bin-wise. Histograms with different layouts cannot merge.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.Count == 0 {
		return nil
	}
	if len(s.Bins) != len(o.Bins) || (len(s.Bins) > 0 && (s.Lo != o.Lo || s.Hi != o.Hi)) {
		return fmt.Errorf("monitor: cannot merge sketches with different bin layouts ([%g,%g)x%d vs [%g,%g)x%d)",
			s.Lo, s.Hi, len(s.Bins), o.Lo, o.Hi, len(o.Bins))
	}
	if s.Count == 0 {
		s.Count, s.Mean, s.M2, s.Min, s.Max = o.Count, o.Mean, o.M2, o.Min, o.Max
		copy(s.Bins, o.Bins)
		return nil
	}
	n := float64(s.Count + o.Count)
	delta := o.Mean - s.Mean
	s.M2 += o.M2 + delta*delta*float64(s.Count)*float64(o.Count)/n
	s.Mean += delta * float64(o.Count) / n
	s.Count += o.Count
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Bins {
		s.Bins[i] += o.Bins[i]
	}
	return nil
}

// psiEpsilon floors each bin proportion before the log-ratio so that a
// bin empty on one side contributes a large-but-finite term instead of
// an infinity.
const psiEpsilon = 1e-4

// PSI returns the Population Stability Index of live against base — the
// standard drift score Σ (p_i − q_i)·ln(p_i/q_i) over matching histogram
// bins, with proportions floored at psiEpsilon. Conventional reading:
// below 0.1 stable, 0.1–0.25 moderate shift, above 0.25 shifted. The
// score is 0 when either sketch is empty or the layouts differ (no
// evidence either way).
func PSI(base, live *Sketch) float64 {
	if base == nil || live == nil || base.Count == 0 || live.Count == 0 {
		return 0
	}
	if len(base.Bins) != len(live.Bins) || len(base.Bins) == 0 ||
		base.Lo != live.Lo || base.Hi != live.Hi {
		return 0
	}
	bn, ln := float64(base.Count), float64(live.Count)
	var psi float64
	for i := range base.Bins {
		p := float64(base.Bins[i]) / bn
		q := float64(live.Bins[i]) / ln
		if p < psiEpsilon {
			p = psiEpsilon
		}
		if q < psiEpsilon {
			q = psiEpsilon
		}
		psi += (q - p) * linalg.Log(q/p)
	}
	return psi
}
