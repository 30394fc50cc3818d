package factorml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// retailDB trains a model over buildRetail's star schema and saves it as
// "retail-nn".
func retailDB(t *testing.T) *DB {
	t.Helper()
	db := openDB(t)
	ds := buildRetail(t, db, 150, 8)
	nres, err := TrainNN(ds, Factorized, NNConfig{Hidden: []int{6}, Epochs: 2, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveNN("retail-nn", nres.Net); err != nil {
		t.Fatal(err)
	}
	return db
}

// newRetailServer stands up the facade server over retailDB with the
// given options.
func newRetailServer(t *testing.T, opts ...ServerOption) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(retailDB(t), []string{"items"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestNewServerFullStack exercises the redesigned constructor with every
// option at once: the versioned data plane (predict/ingest/refresh), the
// canonical operational endpoints (/healthz, /readyz, /statsz, /metrics),
// admission-control wiring, and the unified error envelope.
func TestNewServerFullStack(t *testing.T) {
	srv, ts := newRetailServer(t,
		WithEngineConfig(ServeConfig{NumWorkers: 2}),
		WithStream("orders", StreamPolicy{NumWorkers: 1}),
		WithLimits(Limits{MaxInFlightPerModel: 8, MaxQueuedIngest: 8}),
		WithMetrics(),
	)
	if srv.Stream() == nil {
		t.Fatal("WithStream left Stream() nil")
	}
	if srv.Metrics() == nil {
		t.Fatal("WithMetrics left Metrics() nil")
	}

	// Predict through /v1/.
	resp, err := http.Post(ts.URL+"/v1/models/retail-nn/predict", "application/json",
		strings.NewReader(`{"rows":[{"fact":[1.5,10],"fks":[3]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}

	// Ingest + refresh through /v1/ (wired by WithStream).
	resp, err = http.Post(ts.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"facts":[{"sid":9000,"fks":[2],"features":[1.5,3],"target":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Post(ts.URL+"/v1/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status %d: %s", resp.StatusCode, body)
	}

	// Canonical unversioned endpoints.
	for _, path := range []string{"/healthz", "/readyz", "/statsz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}

	// The exposition carries serving, engine and stream families.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, needle := range []string{
		"# TYPE factorml_http_requests_total counter",
		"# TYPE factorml_http_request_duration_seconds histogram",
		`factorml_http_requests_total{endpoint="predict",code="200"}`,
		"factorml_engine_dim_cache_hit_rate",
		"factorml_stream_ingest_queue_depth",
		"factorml_stream_refreshes_total 1",
	} {
		if !strings.Contains(string(text), needle) {
			t.Fatalf("exposition missing %q:\n%s", needle, text)
		}
	}

	// Readiness flips without affecting liveness, with the envelope on
	// the not-ready path.
	srv.SetReady(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != "not_ready" {
		t.Fatalf("drained readyz: status %d code %q", resp.StatusCode, envelope.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not_ready without Retry-After")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("liveness followed readiness down: %d", resp.StatusCode)
	}
	srv.SetReady(true)
}

// TestServerEnvelopeOnFacade pins the unified error envelope through the
// public constructor for a sample of failure paths (the exhaustive
// per-endpoint matrix lives in internal/serve).
func TestServerEnvelopeOnFacade(t *testing.T) {
	_, ts := newRetailServer(t)
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"unknown model", "POST", "/v1/models/absent/predict", `{"rows":[{"fact":[1,2],"fks":[3]}]}`, 404, "model_not_found"},
		{"malformed body", "POST", "/v1/models/retail-nn/predict", `{nope`, 400, "invalid_request"},
		{"ingest without stream", "POST", "/v1/ingest", `{"facts":[]}`, 503, "stream_disabled"},
		{"refresh without stream", "POST", "/v1/refresh", ``, 503, "stream_disabled"},
		{"unknown route", "GET", "/v2/nope", ``, 404, "not_found"},
		{"wrong method", "PUT", "/v1/ingest", ``, 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: non-JSON error body: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status || envelope.Error.Code != tc.code {
			t.Fatalf("%s: status %d code %q, want %d %q", tc.name, resp.StatusCode, envelope.Error.Code, tc.status, tc.code)
		}
		if envelope.Error.Message == "" {
			t.Fatalf("%s: empty error message", tc.name)
		}
	}
}

// TestServerConcurrentMetricsScrapes scrapes /metrics continuously while
// predict, ingest and refresh traffic runs — under -race this pins the
// whole observability path: atomics on the request path, sync.Map metric
// children, and the scrape-time snapshot collectors over engine and
// stream state.
func TestServerConcurrentMetricsScrapes(t *testing.T) {
	_, ts := newRetailServer(t,
		WithEngineConfig(ServeConfig{NumWorkers: 2}),
		WithStream("orders", StreamPolicy{NumWorkers: 1}),
		WithLimits(Limits{MaxInFlightPerModel: 16, MaxQueuedIngest: 16}),
		WithMetrics(),
	)

	do := func(method, path, body string) (int, error) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	var wg sync.WaitGroup
	const iters = 12
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // predict traffic
			defer wg.Done()
			for i := 0; i < iters; i++ {
				code, err := do("POST", "/v1/models/retail-nn/predict",
					fmt.Sprintf(`{"rows":[{"fact":[%d.5,10],"fks":[%d]}]}`, i%5, i%8))
				if err != nil || (code != 200 && code != 429) {
					t.Errorf("goroutine %d: predict %d %v", g, code, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // ingest traffic, unique sids
		defer wg.Done()
		for i := 0; i < iters; i++ {
			code, err := do("POST", "/v1/ingest",
				fmt.Sprintf(`{"facts":[{"sid":%d,"fks":[%d],"features":[1,2],"target":0.5}]}`, 10_000+i, i%8))
			if err != nil || (code != 200 && code != 429) {
				t.Errorf("ingest: %d %v", code, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // refresh traffic
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if code, err := do("POST", "/v1/refresh", ""); err != nil || code != 200 {
				t.Errorf("refresh: %d %v", code, err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // concurrent scrapers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if code, err := do("GET", "/metrics", ""); err != nil || code != 200 {
					t.Errorf("scrape: %d %v", code, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles the exposition must reflect the traffic.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), `factorml_http_requests_total{endpoint="predict",code="200"}`) {
		t.Fatalf("no predict requests recorded:\n%s", text)
	}
	if !strings.Contains(string(text), "factorml_stream_facts_total") {
		t.Fatalf("no stream counters in exposition:\n%s", text)
	}
}

// lockedBuffer is a log destination the server's handler goroutines write
// while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// accessLogServer boots a facade server with tracing, monitoring and the
// given access logger, closed when the test ends.
func accessLogServer(t *testing.T, l *Logger) *httptest.Server {
	t.Helper()
	srv, err := NewServer(retailDB(t), []string{"items"}, WithTracing(TraceConfig{}), WithMonitoring(MonitorConfig{}), WithServerLogger(l))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

const (
	accessLogPredict = "/v1/models/retail-nn/predict"
	accessLogBody    = `{"rows":[{"fact":[1.5,10],"fks":[3]}]}`
)

// accessLogPost sends one POST, with a traceparent header when one is
// given, and drains the response; it returns nil after reporting an error.
func accessLogPost(t *testing.T, ts *httptest.Server, path, body, traceparent string) *http.Response {
	req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// accessLogLines closes ts, which waits for every request's log line, and
// decodes what the logger wrote, failing on any line that is not one
// whole JSON object.
func accessLogLines(t *testing.T, ts *httptest.Server, buf *lockedBuffer) []map[string]any {
	t.Helper()
	ts.Close()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line %q is not one JSON object: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

// TestServerAccessLog reads the access log a facade server writes through
// WithServerLogger and WithTracing: one JSON http_request line per
// request, whose trace_id is the response's X-Request-Id (adopted from
// the request's traceparent); INFO for a 200 and ERROR for a 5xx; and
// whole lines with distinct trace_ids under concurrent requests.
func TestServerAccessLog(t *testing.T) {
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	var info lockedBuffer
	ts := accessLogServer(t, NewLogger(&info, LogInfo))
	resp := accessLogPost(t, ts, accessLogPredict, accessLogBody, "00-"+traceID+"-00f067aa0ba902b7-01")
	if resp == nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Request-Id") != traceID {
		t.Fatalf("traced predict: %+v", resp)
	}
	if resp := accessLogPost(t, ts, "/v1/refresh", "", ""); resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("refresh without a stream: %+v", resp)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				accessLogPost(t, ts, accessLogPredict, accessLogBody, "")
			}
		}()
	}
	wg.Wait()
	got := accessLogLines(t, ts, &info)
	if len(got) != 42 {
		t.Fatalf("logged %d lines for 42 requests", len(got))
	}
	want := []map[string]any{
		{"level": "INFO", "msg": "http_request", "endpoint": "predict", "method": "POST", "path": accessLogPredict, "status": 200.0, "trace_id": traceID},
		{"level": "ERROR", "msg": "http_request", "endpoint": "refresh", "status": 503.0},
	}
	for i, w := range want {
		for k, v := range w {
			if got[i][k] != v {
				t.Errorf("line %d: %s = %v, want %v (line %v)", i, k, got[i][k], v, got[i])
			}
		}
	}
	ids := make(map[any]bool)
	for _, m := range got {
		if m["time"] == nil || m["duration_ms"] == nil || m["trace_id"] == nil {
			t.Errorf("line without time, duration_ms or trace_id: %v", m)
		}
		ids[m["trace_id"]] = true
	}
	if len(ids) != len(got) {
		t.Errorf("%d lines carry %d distinct trace_ids", len(got), len(ids))
	}
}

// TestServerAccessLogLevel checks the logger's threshold on the access
// log: an ERROR-level logger writes the 5xx line and nothing below it.
func TestServerAccessLogLevel(t *testing.T) {
	var errorsOnly lockedBuffer
	ts := accessLogServer(t, NewLogger(&errorsOnly, LogError))
	accessLogPost(t, ts, accessLogPredict, accessLogBody, "")
	accessLogPost(t, ts, "/v1/refresh", "", "")
	if got := accessLogLines(t, ts, &errorsOnly); len(got) != 1 || got[0]["endpoint"] != "refresh" || got[0]["level"] != "ERROR" {
		t.Errorf("an ERROR-level logger wrote %v, want the refresh line alone", got)
	}
}

// TestServerAccessLogNilLogger checks that WithServerLogger(nil) serves
// normally and writes nothing. A nil logger must not fall back to slog's
// default logger, which also takes over the log package's output until
// restored.
func TestServerAccessLogNilLogger(t *testing.T) {
	var fallback lockedBuffer
	def, out, flags := slog.Default(), log.Writer(), log.Flags()
	defer func() { slog.SetDefault(def); log.SetOutput(out); log.SetFlags(flags) }()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&fallback, &slog.HandlerOptions{Level: LogDebug})))
	ts := accessLogServer(t, nil)
	if resp := accessLogPost(t, ts, accessLogPredict, accessLogBody, ""); resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with a nil logger: %+v", resp)
	}
	accessLogPost(t, ts, "/v1/refresh", "", "")
	ts.Close()
	if fallback.String() != "" {
		t.Errorf("a nil logger wrote to the default logger: %s", fallback.String())
	}
}

// TestParseLogLevel pins the -log-level names: the four documented levels
// parse in any case, and an unknown name is an error.
func TestParseLogLevel(t *testing.T) {
	for s, want := range map[string]LogLevel{"debug": LogDebug, "INFO": LogInfo, "Warn": LogWarn, "error": LogError} {
		if got, err := ParseLogLevel(s); err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Error("ParseLogLevel accepted \"loud\"")
	}
}
