package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/metrics"
	"factorml/internal/nn"
	"factorml/internal/plan"
	"factorml/internal/serve"
	"factorml/internal/storage"
)

// deltaBatch builds a batch of n fact rows over the existing dimension
// keys of the stream's tables.
func deltaBatch(t *testing.T, spec *join.Spec, idxs []*join.ResidentIndex, n int, seed int64) Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dS := spec.S.Schema().NumFeatures()
	base := spec.S.NumTuples()
	var b Batch
	for i := 0; i < n; i++ {
		fr := FactRow{SID: base + int64(i)}
		for _, ix := range idxs {
			pk, _ := ix.At(rng.Intn(ix.Len()))
			fr.FKs = append(fr.FKs, pk)
		}
		fr.Features = make([]float64, dS)
		for d := range fr.Features {
			fr.Features[d] = rng.NormFloat64()
		}
		fr.Target = rng.NormFloat64()
		b.Facts = append(b.Facts, fr)
	}
	return b
}

// TestStreamRefreshBitIdentical drives the whole Stream path: attach a
// trained model, ingest delta batches through the change feed, refresh,
// and verify the result is bit-identical to the full-retraining baseline
// (fresh statistics over base ∪ delta + the same warm-start M-step).
func TestStreamRefreshBitIdentical(t *testing.T) {
	db, spec, p := genStar(t, 500, []int{20}, 3, []int{2}, 3)
	model := trainBase(t, db, spec, 3)

	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("m", model); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("m", model); err == nil {
		t.Fatal("double attach accepted")
	}

	// Two delta batches, one of them inserting a new dimension tuple that
	// the same batch's fact rows reference.
	res, err := s.Ingest(deltaBatch(t, spec, s.idxs, 83, 21))
	if err != nil {
		t.Fatal(err)
	}
	if res.Facts != 83 || res.PendingRows != 83 || res.RefreshTriggered {
		t.Fatalf("ingest result: %+v", res)
	}
	b2 := Batch{
		Dims: []DimUpdate{{Table: spec.Rs[0].Schema().Name, RID: 7777, Features: []float64{1.5, -2.5}}},
	}
	for i := 0; i < 40; i++ {
		b2.Facts = append(b2.Facts, FactRow{
			SID: spec.S.NumTuples() + int64(i), FKs: []int64{7777},
			Features: []float64{0.1 * float64(i), 0.2, -0.3}, Target: 1,
		})
	}
	res, err = s.Ingest(b2)
	if err != nil {
		t.Fatal(err)
	}
	if res.DimInserts != 1 || res.Facts != 40 {
		t.Fatalf("ingest result: %+v", res)
	}

	rres, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Models) != 1 || rres.Models[0].RowsAbsorbed != 123 || rres.Models[0].Rebaselined {
		t.Fatalf("refresh result: %+v", rres)
	}
	got, err := s.GMM("m")
	if err != nil {
		t.Fatal(err)
	}

	// Full-retraining baseline over the union, several worker counts.
	for _, w := range []int{1, 4} {
		full := NewGMMStats(s.rv, p.Dims[0], model)
		if err := full.Absorb(model, spec.S, w); err != nil {
			t.Fatal(err)
		}
		want, err := full.Step(model)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.MaxParamDiff(want); d != 0 {
			t.Fatalf("stream refresh vs full retrain (workers=%d) differ by %g, want bit-identical", w, d)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("pending after refresh = %d", s.Pending())
	}

	// A refresh with nothing new is a no-op: no M-step, no model change
	// (and on a registry-attached stream, no version churn).
	rres, err = s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Models) != 0 {
		t.Fatalf("no-op refresh still refreshed: %+v", rres)
	}
	again, err := s.GMM("m")
	if err != nil {
		t.Fatal(err)
	}
	if d := again.MaxParamDiff(got); d != 0 {
		t.Fatalf("no-op refresh changed the model by %g", d)
	}
}

// TestNNWarmStartRefresh checks the NN refresh path: the stream's
// factorized warm-start epochs over base ∪ delta are bit-identical across
// worker counts and match dense warm-start retraining on the
// materialized union to 1e-9.
func TestNNWarmStartRefresh(t *testing.T) {
	db, spec, _ := genStar(t, 400, []int{16}, 3, []int{2}, 9)
	bres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{6}, Epochs: 2, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := bres.Net

	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachNN("net", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 77, 31)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	got, err := s.NN("net")
	if err != nil {
		t.Fatal(err)
	}

	// The same warm start retrained over the union must agree bitwise for
	// every worker count, and with the dense materialized baseline to 1e-9.
	for _, w := range []int{1, 4} {
		fres, err := nn.TrainF(db, spec, nn.Config{Init: base, Epochs: refreshEpochs, LearningRate: refreshLearningRate, NumWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		if d := got.MaxParamDiff(fres.Net); d != 0 {
			t.Fatalf("stream NN refresh vs warm-start F-NN (workers=%d) differ by %g", w, d)
		}
	}
	mres, err := nn.Train(db, spec, plan.Materialized, nn.Config{Init: base, Epochs: refreshEpochs, LearningRate: refreshLearningRate, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxParamDiff(mres.Net); !(d <= 1e-9) {
		t.Fatalf("stream NN refresh vs dense warm-start retrain differ by %g, want <= 1e-9", d)
	}
}

// serveFixture builds the full serving stack over a trained star schema:
// registry with both model kinds, engine, server and a stream wired into
// all of them.
func serveFixture(t *testing.T, pol Policy) (*storage.Database, *join.Spec, *serve.Registry, *serve.Engine, *serve.Server, *Stream) {
	t.Helper()
	db, spec, _ := genStar(t, 420, []int{18}, 3, []int{2}, 13)
	gres, err := gmm.TrainF(db, spec, gmm.Config{K: 2, MaxIter: 2, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{5}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveGMM("g", gres.Model); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveNN("n", nres.Net); err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(reg, spec.Plan(), serve.EngineConfig{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, spec, Options{Engine: eng, Registry: reg, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("g", gres.Model); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachNN("n", nres.Net); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.WithStream(s.Handler(), s.RefreshHandler(), s.Sections()...))
	return db, spec, reg, eng, srv, s
}

// TestDimUpdateChangesServedPredictions pins the serving-coherence
// property: an ingested dimension-tuple update changes the predictions of
// rows referencing that tuple immediately — no refresh, no restart — and
// leaves every other row untouched.
func TestDimUpdateChangesServedPredictions(t *testing.T) {
	_, spec, _, eng, _, s := serveFixture(t, Policy{NumWorkers: 1})

	pk0, _ := s.idxs[0].At(0)
	pk1, _ := s.idxs[0].At(1)
	rows := []serve.Row{
		{Fact: []float64{0.1, 0.2, 0.3}, FKs: []int64{pk0}},
		{Fact: []float64{0.1, 0.2, 0.3}, FKs: []int64{pk1}},
	}
	before, _, err := eng.PredictCtx(context.Background(), "g", rows)
	if err != nil {
		t.Fatal(err)
	}
	nnBefore, _, err := eng.PredictCtx(context.Background(), "n", rows)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Ingest(Batch{Dims: []DimUpdate{
		{Table: spec.Rs[0].Schema().Name, RID: pk0, Features: []float64{9.5, -9.5}},
	}}); err != nil {
		t.Fatal(err)
	}

	after, _, err := eng.PredictCtx(context.Background(), "g", rows)
	if err != nil {
		t.Fatal(err)
	}
	nnAfter, _, err := eng.PredictCtx(context.Background(), "n", rows)
	if err != nil {
		t.Fatal(err)
	}
	if before[0].LogProb == after[0].LogProb {
		t.Fatal("GMM prediction of the updated dimension tuple did not change")
	}
	if before[1].LogProb != after[1].LogProb {
		t.Fatal("GMM prediction of an untouched dimension tuple changed")
	}
	if nnBefore[0].Output == nnAfter[0].Output {
		t.Fatal("NN prediction of the updated dimension tuple did not change")
	}
	if nnBefore[1].Output != nnAfter[1].Output {
		t.Fatal("NN prediction of an untouched dimension tuple changed")
	}
	if st := eng.Stats(); st.DimInvalidations == 0 {
		t.Fatalf("expected dim-cache invalidations, stats = %+v", st)
	}

	// The dirty statistics rebaseline on the next refresh and the result
	// still matches a from-scratch recompute bitwise.
	rres, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range rres.Models {
		if mr.Kind == string(serve.KindGMM) && !mr.Rebaselined {
			t.Fatalf("GMM refresh after a dimension update must rebaseline: %+v", mr)
		}
	}
}

// TestIngestHTTPAndAutoRefresh drives the HTTP ingest endpoint mounted on
// the serving mux: deltas are POSTed, the refresh-rows policy trips an
// automatic refresh, the registry version bumps, and /statsz reports the
// stream counters.
func TestIngestHTTPAndAutoRefresh(t *testing.T) {
	_, spec, reg, _, srv, s := serveFixture(t, Policy{NumWorkers: 1, RefreshRows: 60})

	v0, _ := reg.Get("g")
	dimTable := spec.Rs[0].Schema().Name
	post := func(body string) (int, map[string]any) {
		req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewBufferString(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var m map[string]any
		_ = json.Unmarshal(rec.Body.Bytes(), &m)
		return rec.Code, m
	}

	pk0, _ := s.idxs[0].At(0)
	mkFacts := func(n int, startSID int64) string {
		var buf bytes.Buffer
		buf.WriteString(`{"facts":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"sid":%d,"fks":[%d],"features":[0.1,0.2,0.3],"target":1}`, startSID+int64(i), pk0)
		}
		buf.WriteString(`]}`)
		return buf.String()
	}

	sid := spec.S.NumTuples()
	code, body := post(mkFacts(40, sid))
	if code != 200 || body["refresh_triggered"] == true {
		t.Fatalf("first batch: code=%d body=%v", code, body)
	}
	code, body = post(mkFacts(40, sid+40))
	if code != 200 || body["refresh_triggered"] != true {
		t.Fatalf("second batch should trip the 60-row policy: code=%d body=%v", code, body)
	}
	v1, _ := reg.Get("g")
	if v1.Version != v0.Version+1 {
		t.Fatalf("registry version after auto refresh = %d, want %d", v1.Version, v0.Version+1)
	}

	// Dimension update over HTTP.
	code, body = post(fmt.Sprintf(`{"dims":[{"table":%q,"rid":%d,"features":[3,4]}]}`, dimTable, pk0))
	if code != 200 || body["dim_updates"] != float64(1) {
		t.Fatalf("dim update: code=%d body=%v", code, body)
	}

	// Bad batches are rejected atomically.
	before := spec.S.NumTuples()
	code, _ = post(`{"facts":[{"sid":1,"fks":[0],"features":[1]}]}`)
	if code != 400 {
		t.Fatalf("wrong-width fact accepted: %d", code)
	}
	code, _ = post(`{"dims":[{"table":"nope","rid":1,"features":[1,2]}]}`)
	if code != 400 {
		t.Fatalf("unknown dim table accepted: %d", code)
	}
	code, _ = post(`{}`)
	if code != 400 {
		t.Fatalf("empty batch accepted: %d", code)
	}
	if spec.S.NumTuples() != before {
		t.Fatal("rejected batch left partial fact rows behind")
	}

	// /statsz carries the stream section.
	req := httptest.NewRequest("GET", "/statsz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var stats struct {
		Stream  Counters          `json:"stream"`
		Planner []PlannerDecision `json:"planner"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	// … and, per mixture, what its maintained statistics hold as of the
	// refresh: every row. The same numbers are /metrics gauges.
	if len(stats.Planner) != 2 || stats.Planner[0].Statistics == nil || stats.Planner[1].Statistics != nil {
		t.Fatalf("planner section = %+v, want statistics on the GMM alone", stats.Planner)
	}
	fp := *stats.Planner[0].Statistics
	if fp.Rows != sid+80 || fp.Bytes <= 0 {
		t.Fatalf("GMM statistics footprint = %+v", fp)
	}
	gauges := map[string]float64{}
	s.PlannerDecisions().Samples(func(m metrics.Sample) {
		if len(m.Labels) == 1 && m.Labels[0] == [2]string{"model", "g"} {
			gauges[m.Name] = m.Value
		}
	})
	if gauges["factorml_stream_gmm_stats_rows"] != float64(fp.Rows) || gauges["factorml_stream_gmm_stats_bytes"] != float64(fp.Bytes) {
		t.Fatalf("statistics gauges = %v, /statsz says %+v", gauges, fp)
	}
	if stats.Stream.FactsIngested != 80 || stats.Stream.DimUpdates != 1 ||
		stats.Stream.Refreshes == 0 || stats.Stream.AutoRefreshes == 0 {
		t.Fatalf("stream stats = %+v", stats.Stream)
	}
	if stats.Stream.AttachedModels != 2 {
		t.Fatalf("attached models = %d", stats.Stream.AttachedModels)
	}
}

// TestTargetlessFactTable pins two contracts of a star schema without a
// target column: an NN cannot be attached (schema-incompatible, so the
// streaming server leaves it served-but-static), and a fact row carrying
// a non-zero target is rejected instead of silently dropping the value.
func TestTargetlessFactTable(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	spec, err := data.Generate(db, "nt", data.SynthConfig{
		NS: 200, NR: []int{8}, DS: 3, DR: []int{2}, Seed: 3, WithTarget: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork([]int{5, 4, 1}, nn.Sigmoid, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = s.AttachNN("n", net)
	if err == nil || !IsIncompatibleModel(err) {
		t.Fatalf("AttachNN on a target-less schema = %v, want IncompatibleModelError", err)
	}
	wrong, err := nn.NewNetwork([]int{9, 4, 1}, nn.Sigmoid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachNN("w", wrong); !IsIncompatibleModel(err) {
		t.Fatalf("AttachNN with wrong input dim = %v, want IncompatibleModelError", err)
	}

	pk, _ := s.idxs[0].At(0)
	_, err = s.Ingest(Batch{Facts: []FactRow{{SID: 200, FKs: []int64{pk}, Features: []float64{1, 2, 3}, Target: 5}}})
	if err == nil || !IsValidationError(err) {
		t.Fatalf("non-zero target on a target-less table = %v, want ValidationError", err)
	}
	if _, err := s.Ingest(Batch{Facts: []FactRow{{SID: 200, FKs: []int64{pk}, Features: []float64{1, 2, 3}}}}); err != nil {
		t.Fatalf("target-less fact row rejected: %v", err)
	}
}

// TestNonFiniteIngestRejected: a NaN or ±Inf anywhere in a batch — a fact
// feature, a target, a dimension feature — is a ValidationError naming the
// row and column, and nothing is applied. Accepted, it would fail the next
// refresh and, kept in the fact table, every rebaseline after it.
func TestNonFiniteIngestRejected(t *testing.T) {
	db, spec, _ := genStar(t, 300, []int{12}, 3, []int{2}, 19)
	model := trainBase(t, db, spec, 2)
	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 1, RebaselineEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("m", model); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	dim := spec.Rs[0].Schema().Name
	for _, tc := range []struct {
		name string
		edit func(b *Batch)
		want string
	}{
		{"NaN feature", func(b *Batch) { b.Facts[3].Features[1] = nan }, "fact 3 (sid %d): feature 1 is NaN"},
		{"+Inf target", func(b *Batch) { b.Facts[3].Target = inf }, "fact 3 (sid %d): target is +Inf"},
		{"+Inf dimension feature", func(b *Batch) {
			b.Dims = []DimUpdate{{Table: dim, RID: 0, Features: []float64{0, inf}}}
		}, "dim 0: table \"" + dim + "\" feature 1 is +Inf"},
	} {
		b := deltaBatch(t, spec, s.idxs, 5, 7)
		tc.edit(&b)
		want := tc.want
		if strings.Contains(want, "%d") {
			want = fmt.Sprintf(want, b.Facts[3].SID)
		}
		_, err := s.Ingest(b)
		if !IsValidationError(err) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Ingest = %v, want a ValidationError containing %q", tc.name, err, want)
		}
		if s.Pending() != 0 {
			t.Fatalf("%s: %d rows pending after a rejected batch", tc.name, s.Pending())
		}
	}
	if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 5, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(); err != nil {
		t.Fatalf("refresh after the rejected batches: %v", err)
	}
	got, err := s.GMM("m")
	if err != nil {
		t.Fatal(err)
	}
	for c := range got.Means {
		if nonFinite(got.Means[c]...) >= 0 {
			t.Fatalf("component %d mean %v after refresh", c, got.Means[c])
		}
	}
}

// TestRebaselineCadence checks Policy.RebaselineEvery.
func TestRebaselineCadence(t *testing.T) {
	db, spec, _ := genStar(t, 300, []int{12}, 3, []int{2}, 17)
	model := trainBase(t, db, spec, 2)
	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 1, RebaselineEvery: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("m", model); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 10, int64(100+i))); err != nil {
			t.Fatal(err)
		}
		rres, err := s.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		wantRebase := i%2 == 0
		if rres.Models[0].Rebaselined != wantRebase {
			t.Fatalf("refresh %d: rebaselined=%v, want %v", i, rres.Models[0].Rebaselined, wantRebase)
		}
	}
	if c := s.Counters(); c.Rebaselines != 2 || c.Refreshes != 4 {
		t.Fatalf("counters = %+v", c)
	}
}
