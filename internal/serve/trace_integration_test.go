package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"factorml/internal/serve"
	"factorml/internal/trace"
)

// Mirror of the /debug/traces JSON payload (internal/trace debugPayload).
type debugTraces struct {
	Stats struct {
		Requests uint64 `json:"requests"`
		Sampled  uint64 `json:"sampled"`
		Recorded uint64 `json:"recorded"`
	} `json:"stats"`
	Traces []struct {
		TraceID    string  `json:"trace_id"`
		RequestID  string  `json:"request_id"`
		Name       string  `json:"name"`
		DurationMs float64 `json:"duration_ms"`
		Status     int     `json:"status"`
		Spans      []struct {
			ID     int32             `json:"id"`
			Parent int32             `json:"parent"`
			Name   string            `json:"name"`
			Attrs  map[string]string `json:"attrs"`
		} `json:"spans"`
	} `json:"traces"`
}

func getTraces(t *testing.T, url string) *debugTraces {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	var out debugTraces
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return &out
}

var requestIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestTracedPredictEndToEnd drives a predict over HTTP with tracing on
// and checks the full observability contract: the response carries an
// X-Request-Id and a traceparent, the flight recorder exports the trace
// at /debug/traces under that same request id, and the span tree covers
// the admission, engine-batch, worker-chunk and cache-lookup levels.
func TestTracedPredictEndToEnd(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 4})
	if err := reg.SaveNN("m-nn", net); err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.Config{SampleFraction: 1, SlowThreshold: time.Nanosecond})
	ts := httptest.NewServer(serve.NewServer(eng, serve.WithTracer(tracer)))
	defer ts.Close()

	rows, _ := factRows(t, spec, 130)
	resp, out := postPredict(t, ts, "m-nn", rows)
	if out == nil {
		t.Fatalf("predict failed with status %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if !requestIDRe.MatchString(reqID) {
		t.Fatalf("X-Request-Id = %q, want 32 hex chars", reqID)
	}
	tp := resp.Header.Get("traceparent")
	if len(tp) != 55 || tp[:3] != "00-" || tp[3:35] != reqID {
		t.Fatalf("traceparent = %q, want version 00 carrying trace id %s", tp, reqID)
	}

	for _, path := range []string{"/debug/traces", "/debug/traces/slow"} {
		payload := getTraces(t, ts.URL+path)
		if payload.Stats.Sampled == 0 || payload.Stats.Recorded == 0 {
			t.Fatalf("%s stats = %+v, want sampled and recorded traces", path, payload.Stats)
		}
		var found bool
		for _, tr := range payload.Traces {
			if tr.RequestID != reqID {
				continue
			}
			found = true
			if tr.TraceID != reqID {
				t.Errorf("%s: trace_id %q != request_id %q", path, tr.TraceID, tr.RequestID)
			}
			if tr.Name != "predict" {
				t.Errorf("%s: root name = %q, want endpoint label \"predict\"", path, tr.Name)
			}
			if tr.Status != http.StatusOK {
				t.Errorf("%s: status = %d, want 200", path, tr.Status)
			}
			// The acceptance bar: one trace must cover admission,
			// engine-batch, per-worker chunk and cache-lookup levels.
			counts := map[string]int{}
			for _, sp := range tr.Spans {
				counts[sp.Name]++
			}
			for _, want := range []string{"admission", "engine.predict", "engine.chunk", "cache.lookup"} {
				if counts[want] == 0 {
					t.Errorf("%s: trace %s has no %q span (got %v)", path, reqID, want, counts)
				}
			}
			// 130 rows fan out over 64 + 64 + 2 rows.
			if counts["engine.chunk"] != 3 {
				t.Errorf("%s: engine.chunk spans = %d, want 3", path, counts["engine.chunk"])
			}
		}
		if !found {
			t.Fatalf("%s: no trace with request id %s", path, reqID)
		}
	}
}

// TestTraceparentPropagation sends a sampled W3C traceparent and checks
// the server adopts the caller's trace id: X-Request-Id, the echoed
// traceparent, and the recorded trace all carry it, so a loadgen-side id
// can be joined against the flight recorder.
func TestTraceparentPropagation(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 2})
	_ = reg
	// SampleFraction well below 1: the sampled flag on the incoming
	// traceparent must force recording regardless.
	tracer := trace.New(trace.Config{SampleFraction: 0.0001, SlowThreshold: time.Nanosecond})
	ts := httptest.NewServer(serve.NewServer(eng, serve.WithTracer(tracer)))
	defer ts.Close()

	const upstreamTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+upstreamTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != upstreamTrace {
		t.Fatalf("X-Request-Id = %q, want adopted upstream trace id %q", got, upstreamTrace)
	}
	if tp := resp.Header.Get("traceparent"); len(tp) != 55 || tp[3:35] != upstreamTrace {
		t.Fatalf("traceparent = %q, want upstream trace id retained", tp)
	}
	payload := getTraces(t, ts.URL+"/debug/traces")
	var found bool
	for _, tr := range payload.Traces {
		if tr.TraceID == upstreamTrace {
			found = true
			if tr.Name != "healthz" {
				t.Errorf("adopted trace root name = %q, want \"healthz\"", tr.Name)
			}
		}
	}
	if !found {
		t.Fatalf("flight recorder has no trace with adopted id %s", upstreamTrace)
	}
}
