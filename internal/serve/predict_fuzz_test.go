package serve_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"factorml/internal/serve"
)

// FuzzPredictJSON sends arbitrary JSON predict bodies through the HTTP
// handler of an engine serving an NN and a full GMM over a depth-2
// snowflake. Every answer is 200 or 4xx — never 5xx, never a panic — and
// every 200 row is either a coded row error or within 1e-9 of the dense
// model over the row the request's keys reach (null where the dense value
// is not finite). A row whose widths match, whose fact features are finite
// and whose keys all resolve must not be an error. Hostile foreign keys —
// negative, huge, dangling below the direct tuple — run the subtree walk.
func FuzzPredictJSON(f *testing.F) {
	_, eng, m, net, gm := snowflakeEngine(f, 2, serve.EngineConfig{NumWorkers: 2, CacheEntries: 4})
	h := serve.NewServer(eng)
	f.Add([]byte(`{"rows":[{"fact":[0.5,1,0.2],"fks":[3,4]}]}`))
	f.Add([]byte(`{"rows":[{"fact":[0.5,1,0.2],"fks":[24,9]},{"fact":[0,0,0],"fks":[0,0]},{"fact":[1,2,3],"fks":[3,4]}]}`))
	f.Add([]byte(`{"rows":[{"fact":[0.5,1,0.2],"fks":[25,-1]},{"fact":[0.5,1],"fks":[3,4]},{"fact":[0.5,1,0.2],"fks":[3]}]}`))
	f.Add([]byte(`{"rows":[{"fact":[1e308,-1e308,5e-324],"fks":[9223372036854775807,-9223372036854775808]}]}`))
	f.Add([]byte(`{"rows":[{"fact":[1e200,2,3],"fks":[1,1]}]}`))
	f.Add([]byte(`{"rows":[{"fact":null,"fks":null},{}]}`))
	f.Add([]byte(`{"rows":[]}`))
	f.Add([]byte(`{"rows":[{"fact":[1,2,3],"fks":[1,1],"x":1}]}`))
	f.Add([]byte(`{"rows":[{"fact":["a"],"fks":[1.5]}]} trailing`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req struct {
			Rows []serve.Row `json:"rows"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		parsed := dec.Decode(&req) == nil
		for _, model := range []string{"m-nn", "m-gmm"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/"+model+"/predict", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				if rec.Code < 400 || rec.Code >= 500 {
					t.Fatalf("%s: status %d for %q: %s", model, rec.Code, body, rec.Body.Bytes())
				}
				continue
			}
			if !parsed {
				t.Fatalf("%s: 200 for a body the reference cannot decode: %q", model, body)
			}
			var resp httpPredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: undecodable 200 body %q: %v", model, rec.Body.Bytes(), err)
			}
			if len(resp.Predictions) != len(req.Rows) {
				t.Fatalf("%s: %d predictions for %d rows", model, len(resp.Predictions), len(req.Rows))
			}
			for i, p := range resp.Predictions {
				row := req.Rows[i]
				x, reachable := servable(m, row)
				if p.Err != nil {
					if p.Err.Code == "" || p.Err.Message == "" {
						t.Fatalf("%s row %d: uncoded error %+v", model, i, *p.Err)
					}
					if reachable {
						t.Fatalf("%s row %d (%+v): error %+v on a servable row", model, i, row, *p.Err)
					}
					continue
				}
				if !reachable {
					t.Fatalf("%s row %d (%+v): served a row the reference cannot join", model, i, row)
				}
				if model == "m-nn" {
					checkClose(t, model, i, p.Output, net.Predict(x))
				} else {
					checkClose(t, model, i, p.LogProb, gm.LogProb(x))
				}
			}
		}
	})
}

// servable returns the dense row of a request row, and whether the engine
// must serve it: the widths match, the fact features are finite and every
// hop resolves.
func servable(m *mirror, row serve.Row) ([]float64, bool) {
	if len(row.Fact) != 3 || len(row.FKs) != 2 {
		return nil, false
	}
	for _, v := range row.Fact {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return m.joined(row)
}

// checkClose requires a served value within 1e-9 (relative) of the dense
// one, or null where the dense value is not finite.
func checkClose(t *testing.T, model string, i int, got *float64, want float64) {
	t.Helper()
	if math.IsNaN(want) || math.IsInf(want, 0) {
		if got != nil {
			t.Fatalf("%s row %d: served %v, dense %v", model, i, *got, want)
		}
		return
	}
	if got == nil || math.Abs(*got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("%s row %d: served %v, dense %v", model, i, got, want)
	}
}
