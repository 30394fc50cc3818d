package monitor

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestSketchMoments(t *testing.T) {
	s := NewSketch(0, 10, 10)
	vals := []float64{1, 2, 3, 4, 5, 9.5, -2, 12}
	var sum float64
	for _, v := range vals {
		s.Observe(v)
		sum += v
	}
	if s.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	mean := sum / float64(len(vals))
	if math.Abs(s.Mean-mean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", s.Mean, mean)
	}
	var m2 float64
	for _, v := range vals {
		m2 += (v - mean) * (v - mean)
	}
	if math.Abs(s.M2-m2) > 1e-9 {
		t.Fatalf("second moment = %v, want %v", s.M2, m2)
	}
	if s.Min != -2 || s.Max != 12 {
		t.Fatalf("min/max = %v/%v, want -2/12", s.Min, s.Max)
	}
	// -2 underflows, 12 overflows, the rest land in interior bins.
	if s.Bins[0] != 1 {
		t.Fatalf("underflow bin = %d, want 1", s.Bins[0])
	}
	if s.Bins[len(s.Bins)-1] != 1 {
		t.Fatalf("overflow bin = %d, want 1", s.Bins[len(s.Bins)-1])
	}
	var interior int64
	for _, b := range s.Bins[1 : len(s.Bins)-1] {
		interior += b
	}
	if interior != 6 {
		t.Fatalf("interior count = %d, want 6", interior)
	}
}

func TestSketchUpperEdgeRounding(t *testing.T) {
	// A value epsilon below Hi must land in the last interior bin, not
	// panic past it.
	s := NewSketch(0, 1, 10)
	s.Observe(math.Nextafter(1, 0))
	if s.Bins[10] != 1 {
		t.Fatalf("value just below Hi landed in bin %v, want interior bin 10", s.Bins)
	}
}

func TestSketchDegenerateRange(t *testing.T) {
	s := NewSketch(5, 5, 10)
	for i := 0; i < 3; i++ {
		s.Observe(5)
	}
	if s.Bins[1] != 3 {
		t.Fatalf("constant column: bins = %v, want all 3 in first interior bin", s.Bins)
	}
}

func TestSketchMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	whole := NewSketch(-3, 3, 12)
	a := NewSketch(-3, 3, 12)
	b := NewSketch(-3, 3, 12)
	for i := 0; i < 500; i++ {
		v := rng.NormFloat64()
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count != whole.Count {
		t.Fatalf("merged count = %d, want %d", a.Count, whole.Count)
	}
	if math.Abs(a.Mean-whole.Mean) > 1e-9 || math.Abs(a.M2-whole.M2) > 1e-6 {
		t.Fatalf("merged moments (%v, %v) != whole (%v, %v)", a.Mean, a.M2, whole.Mean, whole.M2)
	}
	if a.Min != whole.Min || a.Max != whole.Max {
		t.Fatalf("merged min/max (%v, %v) != whole (%v, %v)", a.Min, a.Max, whole.Min, whole.Max)
	}
	for i := range a.Bins {
		if a.Bins[i] != whole.Bins[i] {
			t.Fatalf("merged bin %d = %d, want %d", i, a.Bins[i], whole.Bins[i])
		}
	}
}

func TestSketchMergeIntoEmptyAndLayoutMismatch(t *testing.T) {
	empty := NewSketch(0, 1, 4)
	full := NewSketch(0, 1, 4)
	full.Observe(0.5)
	if err := empty.Merge(full); err != nil {
		t.Fatal(err)
	}
	if empty.Count != 1 || empty.Min != 0.5 || empty.Max != 0.5 {
		t.Fatalf("merge into empty lost state: %+v", empty)
	}
	other := NewSketch(0, 2, 4)
	other.Observe(1)
	if err := full.Merge(other); err == nil {
		t.Fatal("merging different layouts should fail")
	}
	// Merging an empty sketch is a no-op regardless of layout.
	if err := full.Merge(NewSketch(9, 10, 2)); err != nil {
		t.Fatalf("merging an empty sketch should be a no-op, got %v", err)
	}
}

func TestPSI(t *testing.T) {
	base := NewSketch(0, 1, 10)
	same := NewSketch(0, 1, 10)
	shifted := NewSketch(0, 1, 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		base.Observe(rng.Float64() * 0.5)
		same.Observe(rng.Float64() * 0.5)
		shifted.Observe(0.5 + rng.Float64()*0.5)
	}
	if psi := PSI(base, same); psi > 0.05 {
		t.Fatalf("PSI(base, same) = %v, want ~0", psi)
	}
	if psi := PSI(base, shifted); psi < 1 {
		t.Fatalf("PSI(base, shifted) = %v, want a large shift score", psi)
	}
	if psi := PSI(base, NewSketch(0, 1, 10)); psi != 0 {
		t.Fatalf("PSI against an empty sketch = %v, want 0 (no evidence)", psi)
	}
	if psi := PSI(base, NewSketch(0, 2, 10)); psi != 0 {
		t.Fatalf("PSI across layouts = %v, want 0", psi)
	}
	if psi := PSI(nil, base); psi != 0 {
		t.Fatalf("PSI with nil base = %v, want 0", psi)
	}
}

func TestObserveAllocFree(t *testing.T) {
	s := NewSketch(0, 1, 10)
	if allocs := testing.AllocsPerRun(100, func() { s.Observe(0.3) }); allocs != 0 {
		t.Fatalf("Observe allocated %v times per run, want 0", allocs)
	}
}

// TestSketchSkipsNonFinite: after a normal value, NaN, ±Inf and ±1e308
// (whose squared deviation overflows) leave the sketch exactly as it was —
// no panic on a NaN bin index, no non-finite moment, and the sketch still
// marshals as lineage JSON.
func TestSketchSkipsNonFinite(t *testing.T) {
	s := NewSketch(0, 10, 10)
	s.Observe(5)
	want := *s
	want.Bins = append([]int64(nil), s.Bins...)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308} {
		s.Observe(x)
		if s.Count != want.Count || s.Mean != want.Mean || s.M2 != want.M2 || s.Min != want.Min || s.Max != want.Max {
			t.Fatalf("Observe(%g) moved the moments: %+v, want %+v", x, *s, want)
		}
		for i := range s.Bins {
			if s.Bins[i] != want.Bins[i] {
				t.Fatalf("Observe(%g) moved bin %d: %v, want %v", x, i, s.Bins, want.Bins)
			}
		}
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	s.Observe(7)
	if s.Count != 2 || s.Mean != 6 {
		t.Fatalf("a finite value after the skipped ones: count %d mean %v", s.Count, s.Mean)
	}
}
