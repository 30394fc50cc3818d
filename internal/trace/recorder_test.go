package trace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestRecentRingBoundsAndOrder(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour})
	for i := 0; i < recentTraces+2; i++ {
		_, trace, _ := tr.StartRequest(context.Background(), "r", "")
		trace.SetName(strconv.Itoa(i))
		trace.Finish(200)
	}
	recs := tr.Recent()
	if len(recs) != recentTraces {
		t.Fatalf("ring holds %d, want %d", len(recs), recentTraces)
	}
	// Newest first.
	for i, want := range []string{strconv.Itoa(recentTraces + 1), strconv.Itoa(recentTraces), strconv.Itoa(recentTraces - 1)} {
		if recs[i].Name != want {
			t.Fatalf("recent[%d] = %q, want %q", i, recs[i].Name, want)
		}
	}
}

func TestSlowListTailSampling(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour})
	finish := func(name string, durMs float64, status int) {
		_, trace, _ := tr.StartRequest(context.Background(), name, "")
		trace.mu.Lock()
		trace.start = time.Now().Add(-time.Duration(durMs * float64(time.Millisecond)))
		trace.mu.Unlock()
		trace.Finish(status)
	}
	for i := 0; i < slowTraces; i++ { // fill the list
		finish("fast", 1+float64(i)/slowTraces, 200)
	}
	finish("slowest", 500, 200) // outranks every fast trace
	finish("err", 0.5, 500)     // errors outrank any healthy duration
	byName := map[string]bool{}
	for _, r := range tr.Slow() {
		byName[r.Name] = true
	}
	if !byName["err"] || !byName["slowest"] {
		t.Fatalf("slow list %v must retain the error and the slowest trace", byName)
	}
	// Worst first: the error leads.
	if tr.Slow()[0].Name != "err" {
		t.Fatalf("slow[0] = %q, want err", tr.Slow()[0].Name)
	}
}

func TestDebugHandlerServesWellFormedJSON(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Nanosecond})
	ctx, trace, _ := tr.StartRequest(context.Background(), "request", "")
	_, sp := Start(ctx, "engine.predict")
	sp.End()
	trace.Finish(200)

	for _, path := range []string{"/debug/traces", "/debug/traces/slow"} {
		rr := httptest.NewRecorder()
		tr.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			t.Fatalf("%s: status %d", path, rr.Code)
		}
		var p debugPayload
		if err := json.Unmarshal(rr.Body.Bytes(), &p); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
		if len(p.Traces) != 1 || p.Traces[0].TraceID == "" || len(p.Traces[0].Spans) != 2 {
			t.Fatalf("%s: payload %+v", path, p)
		}
		if p.Stats.Sampled != 1 {
			t.Fatalf("%s: stats %+v", path, p.Stats)
		}
	}
}

// TestFlightRecorderConcurrentRecordScrape hammers the recorder with
// concurrent request recording, span churn and scrapes; run under
// -race it pins the locking discipline of the whole package.
func TestFlightRecorderConcurrentRecordScrape(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Microsecond})
	const writers, scrapers, iters = 8, 4, 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, trace, _ := tr.StartRequest(context.Background(), "req", "")
				ctx2, sp := Start(ctx, "engine.predict")
				var inner sync.WaitGroup
				for c := 0; c < 3; c++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						_, chunk := Start(ctx2, "engine.chunk")
						lk := chunk.Child("cache.lookup")
						lk.SetBool("hit", true)
						lk.End()
						chunk.End()
					}()
				}
				inner.Wait()
				sp.End()
				status := 200
				if i%17 == 0 {
					status = 500
				}
				trace.Finish(status)
			}
		}(w)
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rr := httptest.NewRecorder()
				tr.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces/slow", nil))
				_ = tr.Recent()
				_ = tr.Stats()
			}
		}()
	}
	wg.Wait()

	st := tr.Stats()
	if st.Sampled != writers*iters {
		t.Fatalf("sampled %d, want %d", st.Sampled, writers*iters)
	}
	if st.Recorded != writers*iters {
		t.Fatalf("recorded %d, want %d", st.Recorded, writers*iters)
	}
	if st.Errors == 0 {
		t.Fatal("expected some errored traces")
	}
	slow := tr.Slow()
	if len(slow) == 0 || len(slow) > slowTraces {
		t.Fatalf("slow list size %d out of bounds", len(slow))
	}
}
