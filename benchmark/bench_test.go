package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// smallConfig shrinks a workload to a fraction of a second: 2% of the
// data, one training round, a handful of slices.
func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 3, trace: trace, scale: 0.02,
		dir: t.TempDir(), out: t.TempDir()}
}

// TestWorkloadsRun runs every workload end to end, plain and traced, and
// checks that every self-check passes and every metric has a value. It
// asserts nothing about timing.
func TestWorkloadsRun(t *testing.T) {
	declared := readDeclared(t)
	if len(declared.workloads) != len(shapes) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(declared.workloads), len(shapes))
	}
	for i, sh := range shapes {
		if declared.workloads[i] != sh.name || declared.whys[i] != sh.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%s), the harness %q (%s)",
				i, declared.workloads[i], declared.whys[i], sh.name, sh.why)
		}
	}
	for _, sh := range shapes {
		for _, trace := range []bool{false, true} {
			name := sh.name + "/plain"
			if trace {
				name = sh.name + "/trace"
			}
			t.Run(name, func(t *testing.T) {
				var report bytes.Buffer
				cfg := smallConfig(t, sh.name, trace)
				res, err := runWorkload(cfg, &report)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.correct, res.attempted, res.failed, report.String())
				}
				// The run must report exactly the metrics BENCHMARK.json
				// promises for its mode, with the promised units.
				want := declared.endToEnd
				if trace {
					want = declared.perLayer
					if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+sh.name+".json")); err != nil {
						t.Fatal(err)
					}
				}
				if len(res.metrics) != len(want) {
					t.Errorf("run reported %d metrics, BENCHMARK.json lists %d", len(res.metrics), len(want))
				}
				for _, m := range res.metrics {
					if unit, ok := want[m.name]; !ok || unit != m.unit {
						t.Errorf("metric %q unit %q: BENCHMARK.json has unit %q (listed: %v)", m.name, m.unit, unit, ok)
					}
				}
				seen := make(map[string]bool)
				for _, m := range res.metrics {
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.unit == "" || seen[m.name] {
						t.Errorf("metric %q: value %v unit %q duplicate %v", m.name, m.value, m.unit, seen[m.name])
					}
					seen[m.name] = true
				}
				if line := res.jsonLine(); !bytes.Contains([]byte(line), []byte(`"correct":true`)) {
					t.Errorf("result line: %s", line)
				}
			})
		}
	}
}

// declaredMetrics is what BENCHMARK.json at the repository root promises.
type declaredMetrics struct {
	workloads []string
	whys      []string
	endToEnd  map[string]string // name -> unit
	perLayer  map[string]string
}

func readDeclared(t *testing.T) declaredMetrics {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	d := declaredMetrics{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, w := range bf.Workloads {
		d.workloads = append(d.workloads, w.Name)
		d.whys = append(d.whys, w.Why)
	}
	for _, m := range bf.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d
}

// TestInputsRepeat pins the generator: equal (workload, seed, scale) give
// the same tables, log and request stream; another seed gives others.
func TestInputsRepeat(t *testing.T) {
	for _, base := range shapes {
		sh := base.scaled(0.02, 0.1)
		a, b, c := generate(&sh, 3), generate(&sh, 3), generate(&sh, 4)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different inputs", sh.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: different seeds, same inputs", sh.name)
		}
	}
}

func TestKeyGenerators(t *testing.T) {
	draw := func(seed int64, s float64) []int64 {
		g := newKeyGen(rand.New(rand.NewSource(seed)), 1000, s)
		out := make([]int64, 5000)
		for i := range out {
			out[i] = g.next()
			if out[i] < 0 || out[i] >= 1000 {
				t.Fatalf("key %d out of range", out[i])
			}
		}
		return out
	}
	for _, s := range []float64{0, 0.8, 1.1} {
		a, b := draw(1, s), draw(1, s)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("s=%g: draw %d differs between equal seeds", s, i)
			}
		}
	}
	// Zipf concentrates on the low keys, uniform does not.
	share := func(keys []int64) float64 {
		n := 0
		for _, k := range keys {
			if k < 10 {
				n++
			}
		}
		return float64(n) / float64(len(keys))
	}
	if z, u := share(draw(2, 1.1)), share(draw(2, 0)); z < 0.3 || u > 0.05 {
		t.Errorf("top-10 key share: zipf %.3f, uniform %.3f", z, u)
	}
}

func TestPercentile(t *testing.T) {
	s := sample{5, 1, 3, 2, 4}.sorted()
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should have no percentile")
	}
	if got := (sample{7}).median(); got != 7 {
		t.Errorf("median of one = %g", got)
	}
	if p, _ := make(sample, 2000).tailPercentile(); p != 99 {
		t.Errorf("tail percentile of 2000 samples = p%g, want p99", p)
	}
}

// TestQuartilesMatchPython pins the noise report's quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 40, 20, 50, 30})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles = %g %g %g, want 15 30 45", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "req", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "req", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "kernel", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "req", Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
	totals := rollUp(spans)
	if len(totals) != 3 || totals[1].Name != "req" || totals[1].Count != 3 {
		t.Fatalf("roll-up = %+v", totals)
	}
	if got := totals[1].SelfMs * 1e6; math.Abs(got-80) > 1e-6 {
		t.Errorf("req self time = %g ns, want 80", got)
	}

	var off *recorder
	if id := off.start("x", "p", 0, 0); id != 0 {
		t.Errorf("nil recorder handed out span %d", id)
	}
	off.end(0)
	rec := newRecorder("w")
	id := rec.start("a", "p", 0, 1)
	rec.end(id)
	if len(rec.spans) != 1 || rec.spans[0].End < rec.spans[0].Start {
		t.Errorf("recorded spans = %+v", rec.spans)
	}
}
