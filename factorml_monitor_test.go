package factorml

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"factorml/internal/monitor"
	"factorml/internal/trace"
	"factorml/internal/wal"
)

// buildMonitorDB creates a small star schema, trains a GMM over it and
// saves it with training lineage — the fixture the monitoring tests
// share. Everything is deterministic, so two calls build bit-identical
// databases and models.
func buildMonitorDB(t *testing.T) (*DB, *FactTable) {
	t.Helper()
	db := openDB(t)
	items, err := db.CreateDimensionTable("items", []string{"price", "size"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := items.Append(int64(i), []float64{float64(10 + i), float64(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	orders, err := db.CreateFactTable("orders", []string{"amount"}, true, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := orders.Append(int64(i), []int64{int64(i % 12)}, []float64{float64(i%9) * 0.5}, float64(i%4)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(orders)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 2, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := GMMLineage(ds, gres.Model, "factorized")
	if err != nil {
		t.Fatal(err)
	}
	if lin.TrainingRows != 300 || lin.Baseline == nil || len(lin.Baseline.Columns) != 3 {
		t.Fatalf("captured lineage: %+v", lin)
	}
	if err := db.SaveGMMLineage("orders-gmm", gres.Model, lin); err != nil {
		t.Fatal(err)
	}
	return db, orders
}

// shiftedIngestBody builds an ingest batch of n fact rows far outside
// the training distribution (amount ~300 vs the trained 0..4 range).
func shiftedIngestBody(t *testing.T, n, from int) *bytes.Reader {
	t.Helper()
	var b StreamBatch
	for i := 0; i < n; i++ {
		b.Facts = append(b.Facts, FactRow{
			SID: int64(from + i), FKs: []int64{int64(i % 12)},
			Features: []float64{300 + float64(i%7)}, Target: 1,
		})
	}
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(body)
}

// TestPublicAPIModelHealth drives the whole monitoring surface over
// HTTP: lineage in the models listing, a fresh verdict after boot, a
// drifting verdict (with the offending column named) after ingesting a
// shifted delta, drift gauges in /metrics and the health section in
// /statsz.
func TestPublicAPIModelHealth(t *testing.T) {
	db, _ := buildMonitorDB(t)
	server, err := NewServer(db, []string{"items"},
		WithEngineConfig(ServeConfig{NumWorkers: 1}),
		WithStream("orders", StreamPolicy{NumWorkers: 1}),
		WithMonitoring(MonitorConfig{MinWindowRows: 10}),
		WithMetrics(),
	)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, []byte) {
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.Bytes()
	}

	// Lineage rides the models listing.
	code, body := get("/v1/models")
	if code != 200 || !bytes.Contains(body, []byte(`"lineage"`)) || !bytes.Contains(body, []byte(`"strategy": "factorized"`)) {
		t.Fatalf("GET /v1/models = %d %s", code, body)
	}

	code, body = get("/v1/models/orders-gmm/health")
	var h ModelHealth
	if code != 200 {
		t.Fatalf("GET health = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Verdict != VerdictFresh || h.TrainingRows != 300 || len(h.Columns) != 3 {
		t.Fatalf("boot health: %+v", h)
	}

	code, body = get("/v1/models/nope/health")
	if code != 404 || !bytes.Contains(body, []byte("model_not_found")) {
		t.Fatalf("GET health for unknown model = %d %s", code, body)
	}

	// A shifted delta flips the verdict.
	rec := httptest.NewRecorder()
	server.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest", shiftedIngestBody(t, 40, 300)))
	if rec.Code != 200 {
		t.Fatalf("POST /v1/ingest = %d %s", rec.Code, rec.Body)
	}
	code, body = get("/v1/models/orders-gmm/health")
	if code != 200 {
		t.Fatalf("GET health = %d %s", code, body)
	}
	h = ModelHealth{}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Verdict != VerdictDrifting || h.RowsSinceRefresh != 40 || len(h.Reasons) == 0 {
		t.Fatalf("post-shift health: %+v", h)
	}
	var drifted bool
	for _, c := range h.Columns {
		if c.Table == "orders" && c.Status == "drift" {
			drifted = true
		}
	}
	if !drifted {
		t.Fatalf("shifted fact column not flagged: %+v", h.Columns)
	}

	// The drift gauges render in the Prometheus exposition and the
	// health section in /statsz; the facade accessor agrees.
	code, body = get("/metrics")
	if code != 200 || !bytes.Contains(body, []byte(`factorml_model_drift_psi{model="orders-gmm"}`)) {
		t.Fatalf("GET /metrics = %d (drift gauge missing)", code)
	}
	if !bytes.Contains(body, []byte(`factorml_model_health{model="orders-gmm",verdict="drifting"}`)) {
		t.Fatal("verdict gauge missing from /metrics")
	}
	code, body = get("/statsz")
	var stats struct {
		Health []ModelHealth `json:"health"`
	}
	if code != 200 {
		t.Fatalf("GET /statsz = %d", code)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Health) != 1 || stats.Health[0].Verdict != VerdictDrifting {
		t.Fatalf("statsz health section: %+v", stats.Health)
	}
	if mh := server.ModelHealth(); len(mh) != 1 || mh[0].Model != "orders-gmm" {
		t.Fatalf("ModelHealth() = %+v", mh)
	}

	// A refresh folds the window into the baseline and restores fresh.
	rec = httptest.NewRecorder()
	server.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/refresh", strings.NewReader("{}")))
	if rec.Code != 200 {
		t.Fatalf("POST /v1/refresh = %d %s", rec.Code, rec.Body)
	}
	code, body = get("/v1/models/orders-gmm/health")
	h = ModelHealth{}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if code != 200 || h.Verdict != VerdictFresh || h.Version != 2 || h.TrainingRows != 340 {
		t.Fatalf("post-refresh health: %+v", h)
	}
}

// TestMonitorHealthWithoutMonitoring pins the disabled surface: the
// health endpoint answers 503 monitoring_disabled on a server booted
// without WithMonitoring, and the facade accessor returns nil.
func TestMonitorHealthWithoutMonitoring(t *testing.T) {
	db, _ := buildMonitorDB(t)
	server, err := NewServer(db, []string{"items"}, WithEngineConfig(ServeConfig{NumWorkers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	server.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/models/orders-gmm/health", nil))
	if rec.Code != 503 || !bytes.Contains(rec.Body.Bytes(), []byte("monitoring_disabled")) {
		t.Fatalf("health without monitoring = %d %s", rec.Code, rec.Body)
	}
	if mh := server.ModelHealth(); mh != nil {
		t.Fatalf("ModelHealth() without monitoring = %+v", mh)
	}
}

// TestMonitoringEquivalence is the guard the whole subsystem is built
// under: monitoring is passive. Two bit-identical databases are served
// with monitoring on and off; after the same ingests, predictions and
// the refreshed model parameters must match exactly.
func TestMonitoringEquivalence(t *testing.T) {
	dbOn, _ := buildMonitorDB(t)
	dbOff, _ := buildMonitorDB(t)

	common := func(extra ...ServerOption) []ServerOption {
		return append([]ServerOption{
			WithEngineConfig(ServeConfig{NumWorkers: 1}),
			WithStream("orders", StreamPolicy{NumWorkers: 1}),
		}, extra...)
	}
	srvOn, err := NewServer(dbOn, []string{"items"}, common(WithMonitoring(MonitorConfig{MinWindowRows: 5}))...)
	if err != nil {
		t.Fatal(err)
	}
	srvOff, err := NewServer(dbOff, []string{"items"}, common()...)
	if err != nil {
		t.Fatal(err)
	}

	do := func(s *Server, method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	both := func(method, path string, body []byte) {
		t.Helper()
		codeOn, bodyOn := do(srvOn, method, path, body)
		codeOff, bodyOff := do(srvOff, method, path, body)
		if codeOn != codeOff || !bytes.Equal(bodyOn, bodyOff) {
			t.Fatalf("%s %s diverges with monitoring on:\n  on:  %d %s\n  off: %d %s",
				method, path, codeOn, bodyOn, codeOff, bodyOff)
		}
	}

	predictBody := []byte(`{"rows":[{"fact":[1.5],"fks":[3]},{"fact":[0.25],"fks":[7]},{"fact":[2.0],"fks":[11]}]}`)
	both("POST", "/v1/models/orders-gmm/predict", predictBody)

	var ingest StreamBatch
	for i := 0; i < 60; i++ {
		ingest.Facts = append(ingest.Facts, FactRow{
			SID: int64(300 + i), FKs: []int64{int64(i % 12)},
			Features: []float64{float64(i%11) * 0.7}, Target: float64(i % 3),
		})
	}
	ingest.Dims = append(ingest.Dims, DimUpdate{Table: "items", RID: 3, Features: []float64{99, 2}})
	ibody, err := json.Marshal(ingest)
	if err != nil {
		t.Fatal(err)
	}
	both("POST", "/v1/ingest", ibody)
	both("POST", "/v1/models/orders-gmm/predict", predictBody)
	both("POST", "/v1/refresh", []byte("{}"))

	mOn, err := srvOn.Stream().GMM("orders-gmm")
	if err != nil {
		t.Fatal(err)
	}
	mOff, err := srvOff.Stream().GMM("orders-gmm")
	if err != nil {
		t.Fatal(err)
	}
	if d := mOn.MaxParamDiff(mOff); d != 0 {
		t.Fatalf("refreshed models diverge with monitoring on: max param diff %g", d)
	}
	both("POST", "/v1/models/orders-gmm/predict", predictBody)

	if h := srvOn.ModelHealth(); len(h) != 1 {
		t.Fatalf("monitored server health: %+v", h)
	}
}

// TestDisabledHooksAllocateNothing pins the telemetry calls compiled into
// the predict and ingest hot paths at zero allocations when their subsystem
// is off: a nil *monitor.Monitor, a context with no sampled trace, a nil
// *wal.Log. (The live paths have their own pins beside the code:
// TestObserveJoinedAllocFree in internal/monitor and, for steady-state
// PredictInto, TestPredictZeroAlloc in internal/serve.)
func TestDisabledHooksAllocateNothing(t *testing.T) {
	x := make([]float64, 12)
	var mon *monitor.Monitor
	ctx := context.Background()
	var log *wal.Log

	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"monitor", func() {
			mon.ObserveJoined(x)
			if mon.SampleQuality("g") {
				mon.ObserveQuality("g", 1)
			}
			mon.CheckAll()
		}},
		{"trace", func() {
			_, sp := trace.Start(ctx, "test.span")
			sp.SetAttr("k", "v")
			sp.End()
		}},
		{"wal", func() {
			if log.Enabled() || log.LastLSN() != 0 || log.Stats().Appends != 0 {
				t.Fatal("nil log reports state")
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(100, tc.op); allocs != 0 {
			t.Errorf("%s: disabled hook path allocates %.0f objects/op, want 0", tc.name, allocs)
		}
	}
}

// TestExtremePredictKeepsRefreshing: a finite fact value far outside the
// training range scores to a non-finite log-likelihood on a monitored
// server. The quality sketch skips it, so the next refresh that folds a
// delta — and saves the advanced lineage — still answers 200, and so does
// every later one.
func TestExtremePredictKeepsRefreshing(t *testing.T) {
	db, _ := buildMonitorDB(t)
	server, err := NewServer(db, []string{"items"},
		WithEngineConfig(ServeConfig{NumWorkers: 1}),
		WithStream("orders", StreamPolicy{NumWorkers: 1}),
		WithMonitoring(MonitorConfig{MinWindowRows: 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s %s = %d %s", method, path, rec.Code, rec.Body)
		}
	}
	do("POST", "/v1/models/orders-gmm/predict", `{"rows":[{"fact":[1e308],"fks":[3]}]}`)
	for sid := 900; sid < 902; sid++ {
		do("POST", "/v1/ingest", fmt.Sprintf(`{"facts":[{"sid":%d,"fks":[2],"features":[1.5],"target":1}]}`, sid))
		do("POST", "/v1/refresh", "")
	}
}
