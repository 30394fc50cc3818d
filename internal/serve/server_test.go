package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"factorml/internal/serve"
)

type httpPredictionError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type httpPrediction struct {
	Output  *float64             `json:"output"`
	LogProb *float64             `json:"log_prob"`
	Cluster *int                 `json:"cluster"`
	Err     *httpPredictionError `json:"error"`
}

type httpPredictResponse struct {
	Model       string           `json:"model"`
	Kind        string           `json:"kind"`
	Version     int              `json:"version"`
	Predictions []httpPrediction `json:"predictions"`
}

func postPredict(t *testing.T, ts *httptest.Server, model string, rows []serve.Row) (*http.Response, *httpPredictResponse) {
	t.Helper()
	payload := new(bytes.Buffer)
	if err := json.NewEncoder(payload).Encode(map[string]any{"rows": rowsJSON(rows)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/"+model+"/predict", "application/json", payload)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var out httpPredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, &out
}

func rowsJSON(rows []serve.Row) []map[string]any {
	out := make([]map[string]any, len(rows))
	for i, r := range rows {
		out[i] = map[string]any{"fact": r.Fact, "fks": r.FKs}
	}
	return out
}

func TestServerEndToEnd(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, model := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 2})
	if err := reg.SaveNN("m-nn", net); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveGMM("m-gmm", model); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(eng))
	defer ts.Close()

	// healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string   `json:"status"`
		Models int      `json:"models"`
		Dims   []string `json:"dimensions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Models != 2 || len(health.Dims) != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	// model listing and lookup
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []serve.ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Models) != 2 || list.Models[0].Name != "m-gmm" || list.Models[1].Name != "m-nn" {
		t.Fatalf("models = %+v", list.Models)
	}
	resp, err = http.Get(ts.URL + "/v1/models/m-nn")
	if err != nil {
		t.Fatal(err)
	}
	var info serve.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Name != "m-nn" || info.Kind != serve.KindNN || info.Version != 1 {
		t.Fatalf("model info = %+v", info)
	}

	// NN predict: bit-identical to the in-process engine (JSON float64
	// encoding round-trips exactly).
	rows, _ := factRows(t, spec, 50)
	want, _, err := eng.PredictCtx(context.Background(), "m-nn", rows)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postPredict(t, ts, "m-nn", rows)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	if got.Model != "m-nn" || got.Kind != "nn" || len(got.Predictions) != len(rows) {
		t.Fatalf("response header = %+v", got)
	}
	for i, p := range got.Predictions {
		if p.Output == nil || p.LogProb != nil || p.Cluster != nil {
			t.Fatalf("row %d: nn response fields = %+v", i, p)
		}
		if *p.Output != want[i].Output {
			t.Fatalf("row %d: HTTP %v vs engine %v, want bit-identical", i, *p.Output, want[i].Output)
		}
	}

	// GMM predict carries log_prob + cluster.
	gwant, _, err := eng.PredictCtx(context.Background(), "m-gmm", rows)
	if err != nil {
		t.Fatal(err)
	}
	resp, ggot := postPredict(t, ts, "m-gmm", rows)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gmm predict status %d", resp.StatusCode)
	}
	for i, p := range ggot.Predictions {
		if p.LogProb == nil || p.Cluster == nil || p.Output != nil {
			t.Fatalf("row %d: gmm response fields = %+v", i, p)
		}
		if *p.LogProb != gwant[i].LogProb || *p.Cluster != gwant[i].Cluster {
			t.Fatalf("row %d: HTTP %v/%d vs engine %v/%d", i, *p.LogProb, *p.Cluster, gwant[i].LogProb, gwant[i].Cluster)
		}
	}

	// statsz reports a non-zero dimension-cache hit rate after batches with
	// repeated foreign keys.
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.DimCacheHitRate == 0 || stats.Rows == 0 || stats.Requests == 0 {
		t.Fatalf("statsz = %+v", stats)
	}

	// Error paths.
	resp, _ = postPredict(t, ts, "absent", rows)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/models/m-nn/predict", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/models/m-nn/predict", "application/json", strings.NewReader(`{"rows":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty rows status %d", resp.StatusCode)
	}

	// Per-row error surfaces in the row, not the status.
	bad := []serve.Row{rows[0], {Fact: rows[0].Fact, FKs: []int64{12345, rows[0].FKs[1]}}}
	resp, bgot := postPredict(t, ts, "m-nn", bad)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("per-row error status %d", resp.StatusCode)
	}
	if bgot.Predictions[0].Err != nil || bgot.Predictions[1].Err == nil {
		t.Fatalf("per-row errors = %+v", bgot.Predictions)
	}
	if code := bgot.Predictions[1].Err.Code; code != "unknown_foreign_key" {
		t.Fatalf("per-row error code = %q, want unknown_foreign_key", code)
	}

	// DELETE unregisters.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/m-gmm", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, _ = postPredict(t, ts, "m-gmm", rows)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after delete status %d", resp.StatusCode)
	}
}

// TestServerConcurrentRequests hits the HTTP layer from many goroutines;
// with -race this pins the full serving stack's concurrency safety.
func TestServerConcurrentRequests(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 2, CacheEntries: 16})
	if err := reg.SaveNN("m", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(eng))
	defer ts.Close()
	rows, _ := factRows(t, spec, 64)
	_, want := postPredict(t, ts, "m", rows)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if g%4 == 3 {
					resp, err := http.Get(ts.URL + "/statsz")
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					continue
				}
				payload := new(bytes.Buffer)
				if err := json.NewEncoder(payload).Encode(map[string]any{"rows": rowsJSON(rows)}); err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/models/m/predict", "application/json", payload)
				if err != nil {
					t.Error(err)
					return
				}
				var got httpPredictResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for r := range got.Predictions {
					if *got.Predictions[r].Output != *want.Predictions[r].Output {
						t.Errorf("goroutine %d: row %d diverged", g, r)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	var stats serve.Stats
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.DimCacheHitRate == 0 {
		t.Fatalf("stats after concurrent load: %+v", stats)
	}
}
