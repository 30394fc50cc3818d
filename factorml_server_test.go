package factorml

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newRetailServer trains and saves a model over buildRetail's star schema
// and stands up the redesigned facade server with the given options.
func newRetailServer(t *testing.T, opts ...ServerOption) (*Server, *httptest.Server) {
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
	srv, err := NewServer(db, []string{"items"}, opts...)
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
