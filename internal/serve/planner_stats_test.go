package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"factorml/internal/metrics"
	"factorml/internal/serve"
)

// plannerStub is a stand-in "planner" section snapshot.
type plannerStub []map[string]any

func (plannerStub) Samples(metrics.Emit) {}

// TestStatszPlannerSection: a section passed with WithStream is embedded
// as the "planner" section of /statsz, and a server built without one has
// no such section.
func TestStatszPlannerSection(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	_, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
	bare := httptest.NewServer(serve.NewServer(eng))
	defer bare.Close()
	ts := httptest.NewServer(serve.NewServer(eng, serve.WithStream(nil, nil,
		metrics.NewSection("planner", func() plannerStub {
			return plannerStub{{"model": "m-nn", "strategy": "factorized"}}
		}))))
	defer ts.Close()

	statsz := func(ts *httptest.Server) map[string]any {
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("statsz status %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if _, ok := statsz(bare)["planner"]; ok {
		t.Fatal("planner section present without WithStream")
	}
	got, ok := statsz(ts)["planner"]
	if !ok {
		t.Fatal("planner section missing with WithStream")
	}
	list, ok := got.([]any)
	if !ok || len(list) != 1 {
		t.Fatalf("planner section = %v", got)
	}
	if entry := list[0].(map[string]any); entry["strategy"] != "factorized" {
		t.Fatalf("planner entry = %v", entry)
	}
}
