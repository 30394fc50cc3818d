package stream

import (
	"testing"

	"factorml/internal/gmm"
	"factorml/internal/metrics"
	"factorml/internal/nn"
)

// TestPlannerDecisionsAndRefreshStrategy: attached models carry a
// cost-based strategy decision — "incremental" maintenance for GMMs, a
// planner-chosen non-materializing strategy for NN warm-start retrains —
// reported by PlannerDecisions (the /statsz "planner" section) and
// stamped on every ModelRefresh.
func TestPlannerDecisionsAndRefreshStrategy(t *testing.T) {
	db, spec, _ := genStar(t, 300, []int{12}, 3, []int{2}, 21)
	gres, err := gmm.TrainF(db, spec, gmm.Config{K: 2, MaxIter: 2, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{4}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("g", gres.Model); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachNN("n", nres.Net); err != nil {
		t.Fatal(err)
	}

	ds := s.PlannerDecisions()
	if len(ds) != 2 {
		t.Fatalf("%d decisions, want 2", len(ds))
	}
	if ds[0].Model != "g" || ds[0].Strategy != "incremental" || len(ds[0].Estimates) != 0 {
		t.Fatalf("GMM decision = %+v", ds[0])
	}
	if ds[1].Model != "n" {
		t.Fatalf("NN decision = %+v", ds[1])
	}
	if got := ds[1].Strategy; got != "factorized" && got != "streaming" {
		t.Fatalf("NN refresh strategy %q, want a non-materializing strategy", got)
	}
	if len(ds[1].Estimates) != 3 {
		t.Fatalf("NN decision carries %d estimates, want 3", len(ds[1].Estimates))
	}

	// The stream's sections carry the decisions the server embeds.
	reg := metrics.NewRegistry()
	reg.Add(s.Sections()...)
	if doc, err := reg.Statsz(); err != nil || doc["planner"] == nil {
		t.Fatalf("planner section = %v (err %v)", doc["planner"], err)
	}

	if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 5, 9)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 2 {
		t.Fatalf("%d refreshed models, want 2", len(res.Models))
	}
	for _, mr := range res.Models {
		switch mr.Kind {
		case "gmm":
			if mr.Strategy != "incremental" {
				t.Errorf("GMM refresh strategy %q, want incremental", mr.Strategy)
			}
		case "nn":
			if mr.Strategy != ds[1].Strategy {
				t.Errorf("NN refresh used %q, planner decision says %q (refresh must reuse the plan)", mr.Strategy, ds[1].Strategy)
			}
		}
	}
}
