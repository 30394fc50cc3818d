package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"factorml/internal/api"
	"factorml/internal/monitor"
	"factorml/internal/serve"
)

// TestNonFinitePredictRows drives extreme fact values through a monitored
// server — JSON, binary and batched. A NaN fact feature answers a per-row
// non_finite_feature error on the binary wire, unbatched and batched (the
// batched flush runs on a timer goroutine, where a panic would kill the
// process). A finite 1e308 scores to a non-finite value over JSON, which
// the quality sketch skips, so the lineage a refresh saves still encodes.
func TestNonFinitePredictRows(t *testing.T) {
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
	mon := monitor.New(monitor.Config{})
	for _, name := range []string{"m-nn", "m-gmm"} {
		mon.Attach(name, "", 1, &monitor.Lineage{Baseline: &monitor.Baseline{
			Columns: []monitor.ColumnBaseline{{Table: "t", Name: "c", Sketch: *monitor.NewSketch(0, 1, 4)}},
			Quality: monitor.NewSketch(-20, 20, 4),
		}})
	}
	eng.SetMonitor(mon)
	plain := httptest.NewServer(serve.NewServer(eng))
	defer plain.Close()
	batched := httptest.NewServer(serve.NewServer(eng, serve.WithLimits(serve.Limits{BatchWindow: time.Millisecond})))
	defer batched.Close()

	rows, _ := factRows(t, spec, 1)
	huge := []serve.Row{{Fact: append([]float64{1e308}, rows[0].Fact[1:]...), FKs: rows[0].FKs}}
	nan := []serve.Row{{Fact: append([]float64{math.NaN()}, rows[0].Fact[1:]...), FKs: rows[0].FKs}}
	for _, name := range []string{"m-nn", "m-gmm"} {
		for _, url := range []string{plain.URL, batched.URL} {
			if payload, code := predictJSON(t, url, name, huge); code != http.StatusOK {
				t.Fatalf("%s: JSON 1e308 row = %d %v", name, code, payload)
			}
			body, err := serve.AppendBinaryRequest(nil, nan)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(url+"/v1/models/"+name+"/predict", serve.BinaryContentType, bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: binary NaN row: %v", name, err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: binary NaN row = %d %s (%v)", name, resp.StatusCode, raw, err)
			}
			_, preds, err := serve.DecodeBinaryResponse(raw)
			if err != nil {
				t.Fatal(err)
			}
			if len(preds) != 1 || preds[0].Code != api.CodeNonFiniteFeature || preds[0].Err == "" {
				t.Fatalf("%s: binary NaN row answered %+v, want a %s row error", name, preds, api.CodeNonFiniteFeature)
			}
		}
		lin := mon.NoteRefresh(name, 2, "", 0)
		if _, err := json.Marshal(lin); err != nil {
			t.Fatalf("%s: lineage after extreme predicts does not encode: %v", name, err)
		}
	}
}
