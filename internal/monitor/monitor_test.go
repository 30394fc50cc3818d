package monitor

import (
	"bytes"
	"log/slog"
	"math/rand"
	"strings"
	"testing"
	"time"

	"factorml/internal/metrics"
)

// testLineage builds a two-column (S.x0, R1.r0) baseline over U[0, 0.5)
// with a quality baseline over U[0, 0.2).
func testLineage() *Lineage {
	colS := NewSketch(0, 1, 10)
	colR := NewSketch(0, 1, 10)
	q := NewSketch(-1, 1, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		colS.Observe(rng.Float64() * 0.5)
		colR.Observe(rng.Float64() * 0.5)
		q.Observe(rng.Float64() * 0.2)
	}
	return &Lineage{
		TrainedAtUnix: 100, TrainingRows: 1000, Strategy: "factorized",
		Baseline: &Baseline{
			CapturedAtUnix: 100, Rows: 1000,
			Columns: []ColumnBaseline{
				{Table: "S", Name: "x0", Sketch: *colS},
				{Table: "R1", Name: "r0", Sketch: *colR},
			},
			Quality: q, QualityMetric: "output",
		},
	}
}

func TestVerdictLifecycle(t *testing.T) {
	var logBuf bytes.Buffer
	m := New(Config{MinWindowRows: 20, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	m.Attach("m1", "gmm", 1, testLineage())

	// In-distribution rows keep the model fresh.
	rng := rand.New(rand.NewSource(2))
	row := make([]float64, 2)
	for i := 0; i < 100; i++ {
		row[0], row[1] = rng.Float64()*0.5, rng.Float64()*0.5
		m.ObserveJoined(row)
	}
	h, ok := m.Health("m1")
	if !ok || h.Verdict != VerdictFresh {
		t.Fatalf("in-distribution verdict = %q (ok=%v), want fresh", h.Verdict, ok)
	}
	if h.RowsSinceRefresh != 100 || h.TrainingRows != 1000 || h.Strategy != "factorized" {
		t.Fatalf("lineage/staleness fields wrong: %+v", h)
	}

	// A shifted delta flips it to drifting and logs the transition.
	for i := 0; i < 300; i++ {
		row[0], row[1] = 0.5+rng.Float64()*0.5, rng.Float64()*0.5
		m.ObserveJoined(row)
	}
	h, _ = m.Health("m1")
	if h.Verdict != VerdictDrifting {
		t.Fatalf("shifted verdict = %q, want drifting (max PSI %v)", h.Verdict, h.MaxPSI)
	}
	if h.Columns[0].Status != "drift" {
		t.Fatalf("shifted column status = %q, want drift", h.Columns[0].Status)
	}
	if len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "S.x0") {
		t.Fatalf("reasons = %v, want the shifted column named", h.Reasons)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "model health verdict changed") ||
		!strings.Contains(logged, `"to":"drifting"`) {
		t.Fatalf("no drifting transition event logged: %q", logged)
	}

	// A refresh folds the window into the baseline and resets the verdict.
	lin := m.NoteRefresh("m1", 2, "incremental", 1400)
	if lin == nil {
		t.Fatal("NoteRefresh returned no lineage")
	}
	if lin.Baseline.Rows != 1400 || lin.TrainingRows != 1400 || lin.Strategy != "incremental" {
		t.Fatalf("refreshed lineage = rows %d / training %d / %q, want 1400/1400/incremental",
			lin.Baseline.Rows, lin.TrainingRows, lin.Strategy)
	}
	h, _ = m.Health("m1")
	if h.Verdict != VerdictFresh || h.RowsSinceRefresh != 0 || h.Version != 2 {
		t.Fatalf("post-refresh health = %+v, want fresh at version 2 with 0 rows", h)
	}
	if !strings.Contains(logBuf.String(), `"to":"fresh"`) {
		t.Fatal("no recovery transition event logged")
	}
}

func TestStaleness(t *testing.T) {
	m := New(Config{StalenessMaxRows: 50, MinWindowRows: 1 << 30})
	m.Attach("m1", "nn", 1, testLineage())
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, 2)
	for i := 0; i < 50; i++ {
		row[0], row[1] = rng.Float64()*0.5, rng.Float64()*0.5
		m.ObserveJoined(row)
	}
	h, _ := m.Health("m1")
	if h.Verdict != VerdictStale {
		t.Fatalf("verdict after %d rows = %q, want stale", h.RowsSinceRefresh, h.Verdict)
	}
	m.NoteRefresh("m1", 2, "", 0)
	if h, _ = m.Health("m1"); h.Verdict != VerdictFresh {
		t.Fatalf("post-refresh verdict = %q, want fresh", h.Verdict)
	}
}

// TestEmptyBaselineRefreshes: a lineage whose baseline lists no columns
// (a checkpoint or registry blob can carry one) refreshes and reports
// health without a panic.
func TestEmptyBaselineRefreshes(t *testing.T) {
	m := New(Config{})
	m.Attach("m1", "nn", 1, &Lineage{Baseline: &Baseline{}})
	m.ObserveJoined([]float64{1, 2})
	if lin := m.NoteRefresh("m1", 2, "factorized", 10); lin == nil || lin.TrainingRows != 10 || lin.Baseline.Rows != 0 {
		t.Fatalf("lineage after refresh = %+v", lin)
	}
	if _, ok := m.Health("m1"); !ok {
		t.Fatal("model not monitored after refresh")
	}
}

func TestUnmonitoredVerdict(t *testing.T) {
	m := New(Config{})
	m.Attach("bare", "gmm", 1, nil)
	h, ok := m.Health("bare")
	if !ok || h.Verdict != VerdictUnmonitored {
		t.Fatalf("health = %+v (ok=%v), want unmonitored", h, ok)
	}
}

func TestQualityDrift(t *testing.T) {
	m := New(Config{MinWindowRows: 20})
	m.Attach("m1", "nn", 1, testLineage())
	if !m.SampleQuality("m1") {
		t.Fatal("SampleFraction 1 should sample every request")
	}
	for i := 0; i < 100; i++ {
		m.ObserveQuality("m1", 0.9) // far outside the quality baseline
	}
	h, _ := m.Health("m1")
	if h.Verdict != VerdictDrifting || h.QualityPSI < 0.25 {
		t.Fatalf("quality drift verdict = %q (quality PSI %v), want drifting", h.Verdict, h.QualityPSI)
	}
	if h.QualityMetric != "output" {
		t.Fatalf("quality metric = %q, want output", h.QualityMetric)
	}
}

func TestQualitySamplingFraction(t *testing.T) {
	m := New(Config{SampleFraction: 0.25})
	m.Attach("m1", "gmm", 1, testLineage())
	sampled := 0
	for i := 0; i < 100; i++ {
		if m.SampleQuality("m1") {
			sampled++
		}
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 requests at fraction 0.25, want 25", sampled)
	}
	if m.SampleQuality("unknown") {
		t.Fatal("unknown model should never sample")
	}
}

func TestObserveDimUpdate(t *testing.T) {
	m := New(Config{MinWindowRows: 1})
	m.Attach("m1", "gmm", 1, testLineage())
	m.ObserveDimUpdate("R1", []float64{0.9})
	m.ObserveDimUpdate("nosuch", []float64{0.9})
	h, _ := m.Health("m1")
	if h.DimUpdatesSinceRefresh != 1 {
		t.Fatalf("dim updates = %d, want 1 (unknown table ignored)", h.DimUpdatesSinceRefresh)
	}
	if h.Columns[1].LiveRows != 1 || h.Columns[0].LiveRows != 0 {
		t.Fatalf("dim update touched wrong columns: %+v", h.Columns)
	}
}

func TestNilMonitorIsFree(t *testing.T) {
	var m *Monitor
	row := []float64{1, 2}
	m.Attach("x", "gmm", 1, nil)
	m.ObserveDimUpdate("t", row)
	m.ObserveQuality("x", 1)
	m.CheckAll()
	if m.SampleQuality("x") {
		t.Fatal("nil monitor sampled")
	}
	if lin := m.NoteRefresh("x", 1, "", 0); lin != nil {
		t.Fatal("nil monitor returned lineage")
	}
	if h := m.HealthAll(); h != nil {
		t.Fatal("nil monitor returned health")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.ObserveJoined(row) }); allocs != 0 {
		t.Fatalf("nil ObserveJoined allocated %v times per run, want 0", allocs)
	}
}

func TestObserveJoinedAllocFree(t *testing.T) {
	m := New(Config{})
	m.Attach("m1", "gmm", 1, testLineage())
	row := []float64{0.1, 0.2}
	if allocs := testing.AllocsPerRun(100, func() { m.ObserveJoined(row) }); allocs != 0 {
		t.Fatalf("ObserveJoined allocated %v times per run, want 0", allocs)
	}
}

func TestMetricsCollector(t *testing.T) {
	fixed := time.Unix(1000, 0)
	m := New(Config{now: func() time.Time { return fixed }})
	m.Attach("m1", "gmm", 3, testLineage())
	reg := metrics.NewRegistry()
	reg.Add(metrics.NewSection("health", m.HealthAll))
	var sb strings.Builder
	reg.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		`factorml_model_drift_psi{model="m1"}`,
		`factorml_model_rows_since_refresh{model="m1"} 0`,
		`factorml_model_health{model="m1",verdict="fresh"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}
