package stream

import (
	"math/rand"
	"testing"

	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/monitor"
	"factorml/internal/serve"
)

// inDistBatch builds a delta of n fact rows whose features are copied
// from existing base facts (so they match the training distribution,
// which deltaBatch's standard normals do not — the synthetic generator
// spreads cluster centers well away from zero).
func inDistBatch(t *testing.T, spec *join.Spec, idxs []*join.ResidentIndex, n int, seed int64) Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dS := spec.S.Schema().NumFeatures()
	base := spec.S.NumTuples()
	var feats [][]float64
	var ys []float64
	err := join.Stream(spec, func(sid int64, x []float64, y float64) error {
		feats = append(feats, append([]float64(nil), x[:dS]...))
		ys = append(ys, y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < n; i++ {
		fr := FactRow{SID: base + int64(i)}
		for _, ix := range idxs {
			pk, _ := ix.At(rng.Intn(ix.Len()))
			fr.FKs = append(fr.FKs, pk)
		}
		j := rng.Intn(len(feats))
		fr.Features = append([]float64(nil), feats[j]...)
		fr.Target = ys[j]
		b.Facts = append(b.Facts, fr)
	}
	return b
}

// TestMonitorRidesChangeFeed pins the tentpole property end to end at
// the stream layer: a baseline captured at train time and persisted
// with the model's lineage, live sketches fed O(1) per ingested row by
// the change feed, a drifting verdict after a shifted delta, and a
// refresh that folds the window into the baseline (no rescan),
// republishes the model with advanced lineage, and resets the verdict.
func TestMonitorRidesChangeFeed(t *testing.T) {
	db, spec, _ := genStar(t, 400, []int{16}, 3, []int{2}, 5)
	gres, err := gmm.TrainF(db, spec, gmm.Config{K: 2, MaxIter: 2, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := monitor.CaptureBaseline(spec,
		func(x []float64, y float64) float64 { return gres.Model.LogProb(x) }, "log_likelihood")
	if err != nil {
		t.Fatal(err)
	}
	lin := &monitor.Lineage{
		TrainedAtUnix: base.CapturedAtUnix, TrainingRows: base.Rows,
		Strategy: "factorized", Baseline: base,
	}
	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveGMMLineage("g", gres.Model, lin); err != nil {
		t.Fatal(err)
	}
	if info, _ := reg.Get("g"); info.Lineage == nil || info.Lineage.TrainingRows != 400 {
		t.Fatalf("registry lost the lineage: %+v", info.Lineage)
	}

	mon := monitor.New(monitor.Config{MinWindowRows: 20})
	s, err := New(db, spec, Options{Registry: reg, Monitor: mon, Policy: Policy{NumWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("g", gres.Model); err != nil {
		t.Fatal(err)
	}
	h, ok := mon.Health("g")
	if !ok || h.Verdict != monitor.VerdictFresh || h.Version != 1 {
		t.Fatalf("attach health = %+v (ok=%v), want fresh v1", h, ok)
	}
	if len(h.Columns) != 5 {
		t.Fatalf("joined columns monitored = %d, want 5 (3 fact + 2 dim)", len(h.Columns))
	}

	// An in-distribution delta keeps the verdict fresh while counting
	// staleness. The window needs a few hundred rows for sampling noise
	// alone to sit well under the 0.25 drift threshold.
	if _, err := s.Ingest(inDistBatch(t, spec, s.idxs, 400, 31)); err != nil {
		t.Fatal(err)
	}
	h, _ = mon.Health("g")
	if h.Verdict != monitor.VerdictFresh || h.RowsSinceRefresh != 400 {
		t.Fatalf("in-distribution health = %q with %d rows, want fresh/400", h.Verdict, h.RowsSinceRefresh)
	}

	// A deliberately shifted delta flips the verdict to drifting with
	// the shifted fact column named.
	shifted := inDistBatch(t, spec, s.idxs, 200, 32)
	for i := range shifted.Facts {
		shifted.Facts[i].Features[0] += 25
	}
	if _, err := s.Ingest(shifted); err != nil {
		t.Fatal(err)
	}
	h, _ = mon.Health("g")
	if h.Verdict != monitor.VerdictDrifting {
		t.Fatalf("shifted health = %q (max PSI %v), want drifting", h.Verdict, h.MaxPSI)
	}
	if h.Columns[0].Status != "drift" {
		t.Fatalf("shifted fact column status = %q, want drift; columns %+v", h.Columns[0].Status, h.Columns)
	}

	// Refresh: the registry version bumps carrying lineage whose
	// baseline absorbed the 600-row window via the exact sketch merge.
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	info, _ := reg.Get("g")
	if info.Version != 2 {
		t.Fatalf("post-refresh version = %d, want 2", info.Version)
	}
	if info.Lineage == nil || info.Lineage.Baseline == nil {
		t.Fatal("refreshed version lost its lineage")
	}
	if got := info.Lineage.Baseline.Rows; got != 1000 {
		t.Fatalf("refreshed baseline rows = %d, want 1000 (400 base + 600 window)", got)
	}
	if info.Lineage.TrainingRows != 1000 {
		t.Fatalf("refreshed training rows = %d, want 1000", info.Lineage.TrainingRows)
	}
	h, _ = mon.Health("g")
	if h.Verdict != monitor.VerdictFresh || h.RowsSinceRefresh != 0 || h.Version != 2 {
		t.Fatalf("post-refresh health = %+v, want fresh v2 with 0 rows", h)
	}
}

// TestMonitorObservesDimUpdates pins the dimension-update path: an
// in-place update feeds the updated table's columns.
func TestMonitorObservesDimUpdates(t *testing.T) {
	db, spec, _ := genStar(t, 100, []int{8}, 3, []int{2}, 7)
	model := trainBase(t, db, spec, 2)
	base, err := monitor.CaptureBaseline(spec, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	lin := &monitor.Lineage{TrainedAtUnix: base.CapturedAtUnix, TrainingRows: base.Rows, Baseline: base}
	if err := reg.SaveGMMLineage("g", model, lin); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(monitor.Config{MinWindowRows: 1})
	s, err := New(db, spec, Options{Registry: reg, Monitor: mon, Policy: Policy{NumWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("g", model); err != nil {
		t.Fatal(err)
	}
	pk, _ := s.idxs[0].At(0)
	if _, err := s.Ingest(Batch{Dims: []DimUpdate{
		{Table: spec.Rs[0].Schema().Name, RID: pk, Features: []float64{4.5, -4.5}},
	}}); err != nil {
		t.Fatal(err)
	}
	h, _ := mon.Health("g")
	if h.DimUpdatesSinceRefresh != 1 {
		t.Fatalf("dim updates since refresh = %d, want 1", h.DimUpdatesSinceRefresh)
	}
	if h.Columns[3].LiveRows != 1 || h.Columns[0].LiveRows != 0 {
		t.Fatalf("dim update fed wrong columns: %+v", h.Columns)
	}
}
