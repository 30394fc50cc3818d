package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"factorml/internal/data"
	"factorml/internal/nn"
	"factorml/internal/storage"
)

func TestLimiter(t *testing.T) {
	if l := NewLimiter(0); l != nil {
		t.Fatal("NewLimiter(0) should be nil (unlimited)")
	}
	var nilLim *Limiter
	if !nilLim.TryAcquire() {
		t.Fatal("nil limiter must admit everything")
	}
	nilLim.Release() // must not panic
	if nilLim.InFlight() != 0 {
		t.Fatal("nil limiter in-flight != 0")
	}

	l := NewLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("limiter of 2 refused its first two slots")
	}
	if l.TryAcquire() {
		t.Fatal("limiter admitted over capacity")
	}
	if got := l.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
}

func TestLimiterConcurrent(t *testing.T) {
	// Under arbitrary concurrency the number of simultaneously held slots
	// never exceeds capacity, and every acquired slot is released.
	const cap = 4
	l := NewLimiter(cap)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if l.TryAcquire() {
					if n := l.InFlight(); n > cap {
						t.Errorf("in-flight %d over capacity %d", n, cap)
					}
					l.Release()
				}
			}
		}()
	}
	wg.Wait()
	if n := l.InFlight(); n != 0 {
		t.Fatalf("leaked %d slots", n)
	}
}

// newLimitsServer stands up a server over a tiny star schema with one
// trained model and the given limits.
func newLimitsServer(t *testing.T, limits Limits) (*Server, *httptest.Server) {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	spec, err := data.Generate(db, "synth", data.SynthConfig{
		NS: 200, NR: []int{10}, DS: 2, DR: []int{2}, Seed: 7, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{4}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveNN("lim-nn", res.Net); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(reg, spec.Plan(), EngineConfig{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, WithLimits(limits))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestPredictAdmissionControl pins the per-model in-flight limit: a
// saturated model answers a structured 429 predict_overloaded (its
// Retry-After is TestOneRetryAfter's) before reading the request body,
// other models are unaffected, and a released slot admits the next
// request — so overload degrades into fast rejections within a bounded
// deadline instead of unbounded queueing.
func TestPredictAdmissionControl(t *testing.T) {
	srv, ts := newLimitsServer(t, Limits{MaxInFlightPerModel: 1})

	body := `{"rows":[{"fact":[0.1,0.2],"fks":[3]}]}`
	post := func(model string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/models/"+model+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var payload map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&payload)
		return resp, payload
	}

	// Saturate the model deterministically by holding its only slot, as
	// an in-flight request would.
	lim := srv.predictLims.get("lim-nn")
	if !lim.TryAcquire() {
		t.Fatal("fresh limiter refused a slot")
	}
	resp, payload := post("lim-nn")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated predict status = %d, want 429 (payload %v)", resp.StatusCode, payload)
	}
	errObj, _ := payload["error"].(map[string]any)
	if errObj == nil || errObj["code"] != "predict_overloaded" {
		t.Fatalf("429 payload = %v, want error.code predict_overloaded", payload)
	}
	details, _ := errObj["details"].(map[string]any)
	if details["model"] != "lim-nn" {
		t.Fatalf("429 details = %v, want the model name", details)
	}

	// The limit is per model: an unknown model's request is admitted (and
	// then 404s on lookup) while lim-nn is saturated.
	if resp, _ := post("other-model"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("other model status = %d, want 404 (admission is per model)", resp.StatusCode)
	}

	// Releasing the slot re-admits immediately.
	lim.Release()
	resp, payload = post("lim-nn")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release predict status = %d, want 200 (payload %v)", resp.StatusCode, payload)
	}

	// The slot taken by a completed request was returned.
	if n := srv.predictLims.get("lim-nn").InFlight(); n != 0 {
		t.Fatalf("in-flight after completion = %d, want 0", n)
	}
}

// TestPredictAdmissionUnderConcurrency drives many concurrent predicts
// at a limit of 1 and checks the invariant that matters: every request
// answers either 200 or a structured 429 — never a 5xx, never a hang —
// and at least the requests that raced an in-flight one got through.
func TestPredictAdmissionUnderConcurrency(t *testing.T) {
	_, ts := newLimitsServer(t, Limits{MaxInFlightPerModel: 1})

	rows := make([]string, 256)
	for i := range rows {
		rows[i] = fmt.Sprintf(`{"fact":[%g,%g],"fks":[%d]}`, float64(i)*0.01, 0.5, i%10)
	}
	body := `{"rows":[` + strings.Join(rows, ",") + `]}`

	const n = 16
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/models/lim-nn/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				var payload struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil || payload.Error.Code != "predict_overloaded" {
					t.Errorf("429 without predict_overloaded envelope: %v %+v", err, payload)
				}
			}
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != n {
		t.Fatalf("status mix %v, want only 200s and 429s", counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("status mix %v: no request ever succeeded", counts)
	}
}
