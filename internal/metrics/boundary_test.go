package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries: an observation exactly at a bucket
// bound counts into that bucket (Prometheus `le` is inclusive), and the
// cumulative bucket counts render accordingly.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("b_test", "boundary test", []float64{0.1, 0.5, 1}, "ep").With("x")
	for _, v := range []float64{0.05, 0.1, 0.5, 1.0, 2.0} {
		h.Observe(v)
	}
	if count(h) != 5 {
		t.Fatalf("Count = %d, want 5", count(h))
	}
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		`b_test_bucket{ep="x",le="0.1"} 2`, // 0.05 and the boundary value 0.1
		`b_test_bucket{ep="x",le="0.5"} 3`, // + boundary value 0.5
		`b_test_bucket{ep="x",le="1"} 4`,   // + boundary value 1.0
		`b_test_bucket{ep="x",le="+Inf"} 5`,
		`b_test_count{ep="x"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramEmptyAndSingleBound: degenerate bucket layouts stay
// consistent — no bounds means everything lands in +Inf, one bound
// splits at exactly that value.
func TestHistogramEmptyAndSingleBound(t *testing.T) {
	r := NewRegistry()
	none := r.HistogramVec("nb_test", "no bounds", nil, "ep").With("x")
	none.Observe(-1)
	none.Observe(1e9)
	if count(none) != 2 {
		t.Fatalf("no-bounds Count = %d, want 2", count(none))
	}
	one := r.HistogramVec("ob_test", "one bound", []float64{0}, "ep").With("x")
	one.Observe(0)  // boundary: inclusive, lands in le="0"
	one.Observe(-5) // below
	one.Observe(5)  // above
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		`ob_test_bucket{ep="x",le="0"} 2`,
		`ob_test_bucket{ep="x",le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramVecConcurrentChildCreation hammers With() for a mix of
// new and existing label values from many goroutines: every goroutine
// must land on the same child per label value (observations are never
// split across duplicate children) and the totals must add up.
func TestHistogramVecConcurrentChildCreation(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("cc_test", "concurrent children", []float64{1}, "ep")
	const goroutines = 16
	const perG = 200
	labels := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				vec.With(labels[(g+i)%len(labels)]).Observe(float64(i))
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, l := range labels {
		h := vec.With(l)
		if h != vec.With(l) {
			t.Fatalf("label %q resolved to two different children", l)
		}
		total += count(h)
	}
	if want := uint64(goroutines * perG); total != want {
		t.Fatalf("observations across children = %d, want %d", total, want)
	}
}
