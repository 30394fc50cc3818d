package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"factorml/internal/serve"
)

// TestPredictZeroAlloc pins the raw-speed pass's zero-allocation serving
// guarantee: a warm single-worker engine scores a batch into a
// caller-owned result buffer without touching the heap — for both model
// kinds. Any regression (a stray closure, a scratch that stopped pooling,
// a trace span on the unsampled path) fails this test and therefore CI.
func TestPredictZeroAlloc(t *testing.T) {
	if serve.RaceEnabled {
		t.Skip("the race runtime allocates inside sync.Pool; the pin runs in the non-race suite")
	}
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, model := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
	if err := reg.SaveNN("m-nn", net); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveGMM("m-gmm", model); err != nil {
		t.Fatal(err)
	}
	rows, _ := factRows(t, spec, 64)
	out := make([]serve.Prediction, len(rows))
	for _, name := range []string{"m-nn", "m-gmm"} {
		// Warm: fill the dimension-partial caches and the scratch pool.
		for i := 0; i < 3; i++ {
			if _, err := eng.PredictInto(name, rows, out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := eng.PredictInto(name, rows, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state PredictInto allocates %.1f objects per call, want 0", name, allocs)
		}
	}

	// An evicting engine misses on most probes; each miss allocates its
	// one cached value and nothing else.
	evicting, err := serve.NewEngine(reg, spec.Plan(), serve.EngineConfig{NumWorkers: 1, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"m-nn", "m-gmm"} {
		if _, err := evicting.PredictInto(name, rows, out); err != nil {
			t.Fatal(err)
		}
		const runs = 50
		before := evicting.Stats().DimCacheMisses
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := evicting.PredictInto(name, rows, out); err != nil {
				t.Fatal(err)
			}
		})
		// AllocsPerRun makes one warm-up call before the timed runs.
		misses := float64(evicting.Stats().DimCacheMisses-before) / (runs + 1)
		if misses == 0 || allocs > misses {
			t.Errorf("%s: evicting PredictInto allocates %.1f objects per call for %.1f misses, want at most one per miss", name, allocs, misses)
		}
	}
}

// predictJSON posts a JSON predict request and decodes the response.
func predictJSON(t *testing.T, url, model string, rows []serve.Row) (map[string]any, int) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"rows": toJSONRows(rows)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/models/"+model+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return payload, resp.StatusCode
}

func toJSONRows(rows []serve.Row) []map[string]any {
	out := make([]map[string]any, len(rows))
	for i, r := range rows {
		out[i] = map[string]any{"fact": r.Fact, "fks": r.FKs}
	}
	return out
}

// TestBatchingEquivalence drives concurrent small predict requests
// through a batching server at workers {1,4} and pins every row's result
// bit-identical to the unbatched engine's answer for the same row — the
// purity guarantee dynamic coalescing rests on. Run under -race this also
// exercises the batcher's flush/timer races.
func TestBatchingEquivalence(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	_, model := trainModels(t, db, spec)
	rows, _ := factRows(t, spec, 48)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: workers})
			if err := reg.SaveGMM("m", model); err != nil {
				t.Fatal(err)
			}
			// Reference: unbatched, straight through the engine.
			want, _, err := eng.Predict("m", rows)
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.NewServer(eng, serve.WithLimits(serve.Limits{
				BatchWindow:  2 * time.Millisecond,
				MaxBatchRows: 16,
			}))
			ts := httptest.NewServer(srv)
			defer ts.Close()
			// Fire one concurrent request per 3-row slice so the window
			// genuinely coalesces neighbors.
			const per = 3
			var wg sync.WaitGroup
			errs := make(chan error, len(rows)/per+1)
			for s := 0; s < len(rows); s += per {
				end := s + per
				if end > len(rows) {
					end = len(rows)
				}
				wg.Add(1)
				go func(s, end int) {
					defer wg.Done()
					payload, status := predictJSON(t, ts.URL, "m", rows[s:end])
					if status != http.StatusOK {
						errs <- fmt.Errorf("rows [%d,%d): status %d", s, end, status)
						return
					}
					preds := payload["predictions"].([]any)
					if len(preds) != end-s {
						errs <- fmt.Errorf("rows [%d,%d): %d predictions", s, end, len(preds))
						return
					}
					for i, pv := range preds {
						p := pv.(map[string]any)
						lp := p["log_prob"].(float64)
						cl := int(p["cluster"].(float64))
						w := want[s+i]
						if math.Float64bits(lp) != math.Float64bits(w.LogProb) || cl != w.Cluster {
							errs <- fmt.Errorf("row %d: batched (%v,%d) != unbatched (%v,%d)",
								s+i, lp, cl, w.LogProb, w.Cluster)
							return
						}
					}
				}(s, end)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestBinaryWireEquivalence pins the binary predict path bit-identical
// to the JSON path — per-row values, per-row error codes, and model
// metadata — at workers {1,4}, including a row with an unknown foreign
// key so both encodings carry a row error side by side.
func TestBinaryWireEquivalence(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, model := trainModels(t, db, spec)
	rows, _ := factRows(t, spec, 24)
	bad := serve.Row{Fact: append([]float64{}, rows[0].Fact...), FKs: []int64{999999, 999999}}
	rows = append(rows, bad)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: workers})
			if err := reg.SaveNN("m-nn", net); err != nil {
				t.Fatal(err)
			}
			if err := reg.SaveGMM("m-gmm", model); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(serve.NewServer(eng))
			defer ts.Close()
			for _, name := range []string{"m-nn", "m-gmm"} {
				jsonPayload, status := predictJSON(t, ts.URL, name, rows)
				if status != http.StatusOK {
					t.Fatalf("%s: JSON status %d", name, status)
				}
				body, err := serve.AppendBinaryRequest(nil, rows)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(ts.URL+"/v1/models/"+name+"/predict",
					"application/x-factorml-binary", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					t.Fatalf("%s: binary status %d", name, resp.StatusCode)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/x-factorml-binary" {
					t.Fatalf("%s: binary response Content-Type %q", name, ct)
				}
				var raw bytes.Buffer
				if _, err := raw.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				info, preds, err := serve.DecodeBinaryResponse(raw.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if info.Name != jsonPayload["model"].(string) || string(info.Kind) != jsonPayload["kind"].(string) ||
					float64(info.Version) != jsonPayload["version"].(float64) {
					t.Fatalf("%s: binary metadata %+v != JSON %v", name, info, jsonPayload)
				}
				jp := jsonPayload["predictions"].([]any)
				if len(jp) != len(preds) {
					t.Fatalf("%s: binary %d rows, JSON %d", name, len(preds), len(jp))
				}
				for i := range preds {
					p := jp[i].(map[string]any)
					if e, ok := p["error"].(map[string]any); ok {
						if preds[i].Code != e["code"].(string) || preds[i].Err != e["message"].(string) {
							t.Fatalf("%s row %d: binary error (%s,%s) != JSON %v",
								name, i, preds[i].Code, preds[i].Err, e)
						}
						continue
					}
					if preds[i].Err != "" {
						t.Fatalf("%s row %d: binary error %q, JSON success", name, i, preds[i].Err)
					}
					if name == "m-nn" {
						if math.Float64bits(preds[i].Output) != math.Float64bits(p["output"].(float64)) {
							t.Fatalf("%s row %d: binary output %v != JSON %v", name, i, preds[i].Output, p["output"])
						}
					} else {
						if math.Float64bits(preds[i].LogProb) != math.Float64bits(p["log_prob"].(float64)) ||
							preds[i].Cluster != int(p["cluster"].(float64)) {
							t.Fatalf("%s row %d: binary (%v,%d) != JSON (%v,%v)",
								name, i, preds[i].LogProb, preds[i].Cluster, p["log_prob"], p["cluster"])
						}
					}
				}
			}
		})
	}
}
