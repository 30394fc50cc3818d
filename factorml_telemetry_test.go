package factorml

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"factorml/internal/wal"
)

// telemetryGolden pins the operator-facing shape of the telemetry surface:
// every /statsz key path and every /metrics family (name, type, label
// names) a fully equipped streaming server exposes. Regenerate with
// FACTORML_GOLDEN_UPDATE=1 go test -run TestTelemetrySurfacesAgree . —
// only when a PR means to change that shape, and say so.
const telemetryGolden = "testdata/telemetry_golden.json"

type telemetryShape struct {
	StatszPaths     []string `json:"statsz_paths"`
	MetricsFamilies []string `json:"metrics_families"`
}

// buildTelemetryServer boots a durable streaming server with every
// telemetry producer on — monitoring, tracing, batching and metrics —
// over a GMM and an NN saved with lineage, and drives predict, ingest and
// refresh traffic through it.
func buildTelemetryServer(t *testing.T) *Server {
	t.Helper()
	db, err := Open(t.TempDir(), Options{NumWorkers: 1}, withWAL(DurabilityConfig{}, wal.Options{NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
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
	for i := 0; i < 200; i++ {
		if err := orders.Append(int64(i), []int64{int64(i % 12)}, []float64{float64(i%9) * 0.5}, float64(i%2)); err != nil {
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
	glin, err := GMMLineage(ds, gres.Model, "factorized")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveGMMLineage("orders-gmm", gres.Model, glin); err != nil {
		t.Fatal(err)
	}
	nres, err := TrainNN(ds, Factorized, NNConfig{Hidden: []int{4}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nlin, err := NNLineage(ds, nres.Net, "factorized")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveNNLineage("orders-nn", nres.Net, nlin); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(db, []string{"items"},
		WithEngineConfig(ServeConfig{NumWorkers: 1}),
		WithStream("orders", StreamPolicy{NumWorkers: 1}),
		WithMonitoring(MonitorConfig{MinWindowRows: 5}),
		WithTracing(TraceConfig{SampleFraction: 1}),
		WithLimits(Limits{BatchWindow: time.Millisecond}),
		WithMetrics(),
	)
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s %s = %d %s", method, path, rec.Code, rec.Body)
		}
	}
	predict := `{"rows":[{"fact":[1.5],"fks":[3]},{"fact":[0.5],"fks":[7]}]}`
	do("POST", "/v1/models/orders-gmm/predict", predict)
	do("POST", "/v1/models/orders-nn/predict", predict)
	do("POST", "/v1/ingest", `{"facts":[{"sid":900,"fks":[2],"features":[1.5],"target":1},{"sid":901,"fks":[5],"features":[2],"target":0}],`+
		`"dims":[{"table":"items","rid":4,"features":[15,1]}]}`)
	do("POST", "/v1/refresh", "")
	do("POST", "/v1/models/orders-gmm/predict", predict)
	return srv
}

// keyPaths flattens a decoded JSON value into its key paths: object keys
// join with ".", array elements share one "[]" step, and every path that
// ends in a scalar, a null or an empty container is listed once.
func keyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 0 {
			out[prefix] = true
		}
		for k, c := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			keyPaths(p, c, out)
		}
	case []any:
		if len(x) == 0 {
			out[prefix] = true
		}
		for _, c := range x {
			keyPaths(prefix+"[]", c, out)
		}
	default:
		out[prefix] = true
	}
}

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
var labelName = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)

// exposition indexes a Prometheus text exposition: each family as
// "name type label,names" (histogram series folded into their family, le
// dropped), and each unlabeled sample's value by name.
func exposition(t *testing.T, text string) (families map[string]bool, values map[string]float64) {
	t.Helper()
	families, values = map[string]bool{}, map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
				name = base
			}
		}
		var labels []string
		for _, l := range labelName.FindAllStringSubmatch(m[2], -1) {
			if l[1] != "le" {
				labels = append(labels, l[1])
			}
		}
		sort.Strings(labels)
		families[name+" "+types[name]+" "+strings.Join(labels, ",")] = true
		if m[2] == "" {
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			values[name] = v
		}
	}
	return families, values
}

// TestTelemetrySurfacesAgree boots a server with every telemetry producer
// on and checks that /statsz and /metrics tell one story: each /statsz
// section has its /metrics families, the counters both surfaces carry
// read the same, the /statsz key paths equal the pinned golden and the
// /metrics families contain it.
func TestTelemetrySurfacesAgree(t *testing.T) {
	srv := buildTelemetryServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /statsz = %d %s", rec.Code, rec.Body)
	}
	var statsz map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &statsz); err != nil {
		t.Fatal(err)
	}
	// Rendered straight from the registry, not over HTTP: a scrape is
	// itself a traced request and would move the tracer's counters.
	var sb strings.Builder
	srv.Metrics().Render(&sb)
	families, values := exposition(t, sb.String())

	paths := map[string]bool{}
	keyPaths("", statsz, paths)
	got := telemetryShape{}
	for p := range paths {
		got.StatszPaths = append(got.StatszPaths, p)
	}
	for f := range families {
		got.MetricsFamilies = append(got.MetricsFamilies, f)
	}
	sort.Strings(got.StatszPaths)
	sort.Strings(got.MetricsFamilies)
	if os.Getenv("FACTORML_GOLDEN_UPDATE") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(telemetryGolden), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", telemetryGolden)
	}
	b, err := os.ReadFile(filepath.FromSlash(telemetryGolden))
	if err != nil {
		t.Fatal(err)
	}
	var want telemetryShape
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got.StatszPaths, "\n") != strings.Join(want.StatszPaths, "\n") {
		t.Errorf("/statsz key paths moved:\n got %v\nwant %v", got.StatszPaths, want.StatszPaths)
	}
	for _, f := range want.MetricsFamilies {
		if !families[f] {
			t.Errorf("/metrics lost family %q", f)
		}
	}

	// Every /statsz section has /metrics families.
	sectionFamilies := map[string]string{
		"rows": "factorml_engine_", "uptime_seconds": "factorml_uptime_seconds", "build": "factorml_build_info",
		"batching": "factorml_batch_", "trace": "factorml_trace_", "stream": "factorml_stream_",
		"planner": "factorml_planner_strategy", "wal": "factorml_wal_", "health": "factorml_model_",
	}
	for key, prefix := range sectionFamilies {
		if _, ok := statsz[key]; !ok {
			t.Errorf("/statsz has no %q", key)
			continue
		}
		found := false
		for f := range families {
			found = found || strings.HasPrefix(f, prefix)
		}
		if !found {
			t.Errorf("/statsz %q has no %s* family in /metrics", key, prefix)
		}
	}

	// The counters both surfaces carry read the same.
	section := func(name string) map[string]any {
		m, _ := statsz[name].(map[string]any)
		return m
	}
	for _, c := range []struct {
		what   string
		statsz any
		metric string
	}{
		{"stream facts_ingested", section("stream")["facts_ingested"], "factorml_stream_facts_total"},
		{"wal last_lsn", section("wal")["last_lsn"], "factorml_wal_last_lsn"},
		{"engine rows", statsz["rows"], "factorml_engine_predict_rows_total"},
		{"batching batches", section("batching")["batches"], "factorml_batch_batches_total"},
		{"trace requests", section("trace")["requests"], "factorml_trace_requests_total"},
	} {
		v, ok := c.statsz.(float64)
		if !ok || v == 0 {
			t.Errorf("%s: /statsz reads %v, want a positive count", c.what, c.statsz)
			continue
		}
		if got, ok := values[c.metric]; !ok || got != v {
			t.Errorf("%s: /statsz reads %v, /metrics %s reads %v (present %v)", c.what, v, c.metric, got, ok)
		}
	}
}
