package serve_test

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"factorml/internal/join"
	"factorml/internal/nn"
	"factorml/internal/serve"
	"factorml/internal/storage"
)

// TestEngineRoundTrip is the end-to-end contract: train → save → close →
// reopen → serve, asserting served predictions against in-process dense
// evaluation (exact to summation order) and bit-identical behaviour across
// worker counts and cache states. It runs on a two-dimension star, whose
// full GMM forms each tuple's PD for the pair terms on every probe, and on
// a one-dimension star, which needs none; then on keys the resident index
// serves through its key map: every dimension key i stored as 10·i − 7,
// and a dense table that receives an insert of key n+5 — through the
// serving engine's Upsert for the first engine, at index build for the
// sweep's.
func TestEngineRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nr, dr []int
		keys   string
	}{
		{"two-dims", []int{25, 10}, []int{2, 2}, "dense"},
		{"one-dim", []int{25}, []int{4}, "dense"},
		{"sparse-keys", []int{25, 10}, []int{2, 2}, "sparse"},
		{"dense-then-sparse", []int{25, 10}, []int{2, 2}, "upsert"},
	} {
		t.Run(tc.name, func(t *testing.T) { testEngineRoundTrip(t, tc.nr, tc.dr, tc.keys) })
	}
}

func testEngineRoundTrip(t *testing.T, nr, dr []int, keys string) {
	dir := t.TempDir()
	db, spec := testStarOf(t, dir, nr, dr)
	if keys == "sparse" {
		spec = sparseKeyStar(t, db, spec)
	}
	net, model := trainModels(t, db, spec)
	rows, joined := factRows(t, spec, 0)
	if keys == "upsert" {
		// Rows probing the inserted key n+5 of the first dimension, whose
		// features are newFeats.
		dS := len(rows[0].Fact)
		for i := 0; i < 20; i++ {
			r := serve.Row{Fact: rows[i].Fact, FKs: append([]int64{int64(nr[0] + 5)}, rows[i].FKs[1:]...)}
			x := append([]float64{}, joined[i]...)
			copy(x[dS:], newFeats(dr[0]))
			rows, joined = append(rows, r), append(joined, x)
		}
	}

	// In-process expectations over the assembled joined vectors, computed
	// before anything is serialized.
	wantNN := make([]float64, len(rows))
	wantLP := make([]float64, len(rows))
	wantCl := make([]int, len(rows))
	for i, x := range joined {
		wantNN[i] = net.Predict(x)
		wantLP[i] = model.LogProb(x)
		wantCl[i] = model.Predict(x)
	}

	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveNN("m-nn", net); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveGMM("m-gmm", model); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot from disk.
	db2, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var dims []*storage.Table
	for _, r := range spec.Rs {
		tbl, err := db2.Table(r.Schema().Name)
		if err != nil {
			t.Fatal(err)
		}
		dims = append(dims, tbl)
	}
	reg2, err := serve.NewRegistry(db2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(reg2, mustPlan(t, dims), serve.EngineConfig{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if keys == "upsert" {
		key := int64(nr[0] + 5)
		if isNew, err := eng.ApplyDimUpdate(dims[0].Schema().Name, key, nil, newFeats(dr[0])); err != nil || !isNew {
			t.Fatalf("ApplyDimUpdate(%d) = new %v, err %v", key, isNew, err)
		}
		if err := dims[0].Append(&storage.Tuple{Keys: []int64{key}, Features: newFeats(dr[0])}); err != nil {
			t.Fatal(err)
		}
	}

	preds, info, err := eng.PredictCtx(context.Background(), "m-nn", rows)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != serve.KindNN {
		t.Fatalf("info = %+v", info)
	}
	for i := range preds {
		if preds[i].Err != "" {
			t.Fatalf("row %d: %s", i, preds[i].Err)
		}
		if d := math.Abs(preds[i].Output - wantNN[i]); d > 1e-9*(1+math.Abs(wantNN[i])) {
			t.Fatalf("row %d: served %v, dense in-process %v (diff %g)", i, preds[i].Output, wantNN[i], d)
		}
	}
	gpreds, _, err := eng.PredictCtx(context.Background(), "m-gmm", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gpreds {
		if d := math.Abs(gpreds[i].LogProb - wantLP[i]); d > 1e-9*(1+math.Abs(wantLP[i])) {
			t.Fatalf("row %d: served log-prob %v, dense %v (diff %g)", i, gpreds[i].LogProb, wantLP[i], d)
		}
		if gpreds[i].Cluster != wantCl[i] {
			t.Fatalf("row %d: served cluster %d, dense %d", i, gpreds[i].Cluster, wantCl[i])
		}
	}

	// Worker-count and cache-state sweeps are bit-identical to the
	// sequential, cold-cache run above — including a cache small enough to
	// evict constantly and a warm repeat of the same batch. The batch's 600
	// rows or more cross the 64-row chunk boundary and end in a partial
	// chunk.
	for _, cfg := range []serve.EngineConfig{
		{NumWorkers: 2},
		{NumWorkers: 4},
		{NumWorkers: 8, CacheEntries: 2},
		{NumWorkers: 3, CacheEntries: 1},
		{NumWorkers: 1, CacheEntries: 1},
	} {
		eng2, err := serve.NewEngine(reg2, mustPlan(t, dims), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // cold, then warm
			p2, _, err := eng2.PredictCtx(context.Background(), "m-nn", rows)
			if err != nil {
				t.Fatal(err)
			}
			g2, _, err := eng2.PredictCtx(context.Background(), "m-gmm", rows)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p2 {
				if p2[i].Output != preds[i].Output {
					t.Fatalf("cfg %+v pass %d row %d: nn output %v vs %v, want bit-identical",
						cfg, pass, i, p2[i].Output, preds[i].Output)
				}
				if g2[i].LogProb != gpreds[i].LogProb || g2[i].Cluster != gpreds[i].Cluster {
					t.Fatalf("cfg %+v pass %d row %d: gmm %v/%d vs %v/%d, want bit-identical",
						cfg, pass, i, g2[i].LogProb, g2[i].Cluster, gpreds[i].LogProb, gpreds[i].Cluster)
				}
			}
		}
	}
}

// TestEngineCacheHitRate checks the factorization payoff signal: a batch
// with repeated foreign keys must hit the dimension cache.
func TestEngineCacheHitRate(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
	if err := reg.SaveNN("m", net); err != nil {
		t.Fatal(err)
	}
	rows, _ := factRows(t, spec, 0) // 600 rows over 25 and 10 dimension tuples
	if _, _, err := eng.PredictCtx(context.Background(), "m", rows); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.DimCacheHitRate == 0 {
		t.Fatalf("hit rate is zero on a batch with repeated fks: %+v", s)
	}
	// 600 rows × 2 dims with 35 distinct dimension tuples: at most 35
	// misses, everything else hits.
	if s.DimCacheMisses > 35 || s.DimCacheHits < 1000 {
		t.Fatalf("counters: %+v", s)
	}
	if s.Requests != 1 || s.Rows != 600 || s.Models != 1 {
		t.Fatalf("request counters: %+v", s)
	}
	if s.PredictNsTotal == 0 || s.AvgRowMicros == 0 {
		t.Fatalf("latency counters: %+v", s)
	}
}

// TestCacheEntriesIsABound pins CacheEntries as an upper bound, not a
// preallocation: with room for four million entries per (model, direct dimension),
// the first predict over 35 distinct dimension tuples allocates far less
// than a megabyte, and the cache reports bytes for what it holds.
func TestCacheEntriesIsABound(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1, CacheEntries: 1 << 22})
	if err := reg.SaveNN("m", net); err != nil {
		t.Fatal(err)
	}
	rows, _ := factRows(t, spec, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := eng.PredictCtx(context.Background(), "m", rows); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("first predict allocated %d bytes with CacheEntries 1<<22, want < 1 MiB", grown)
	}
	s := eng.Stats()
	if s.DimCacheEntries == 0 || s.DimCacheBytes < s.DimCacheEntries*8*net.HiddenWidth() || s.DimCacheBytes >= 1<<20 {
		t.Fatalf("cache reports %d entries in %d bytes", s.DimCacheEntries, s.DimCacheBytes)
	}
}

// TestEnginePerRowErrors checks that bad rows fail individually without
// failing the batch.
func TestEnginePerRowErrors(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
	if err := reg.SaveNN("m", net); err != nil {
		t.Fatal(err)
	}
	rows, _ := factRows(t, spec, 1)
	good := rows[0]
	batch := []serve.Row{
		good,
		{Fact: good.Fact, FKs: []int64{9999, good.FKs[1]}}, // dangling fk
		{Fact: good.Fact[:1], FKs: good.FKs},               // wrong fact width
		{Fact: good.Fact, FKs: good.FKs[:1]},               // wrong fk count
		good,
	}
	preds, _, err := eng.PredictCtx(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Err != "" || preds[4].Err != "" {
		t.Fatalf("good rows failed: %q / %q", preds[0].Err, preds[4].Err)
	}
	if preds[0].Output != preds[4].Output {
		t.Fatal("identical rows scored differently")
	}
	if !strings.Contains(preds[1].Err, "unknown foreign key 9999") {
		t.Fatalf("dangling fk error = %q", preds[1].Err)
	}
	if !strings.Contains(preds[2].Err, "fact features") {
		t.Fatalf("width error = %q", preds[2].Err)
	}
	if !strings.Contains(preds[3].Err, "foreign keys") {
		t.Fatalf("fk count error = %q", preds[3].Err)
	}

	// Batch-level failures.
	if _, _, err := eng.PredictCtx(context.Background(), "absent", batch); !serve.IsUnknownModel(err) {
		t.Fatalf("unknown model: %v", err)
	}
	tiny, err := nn.NewNetwork([]int{2, 3, 1}, nn.Sigmoid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveNN("tiny", tiny); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.PredictCtx(context.Background(), "tiny", batch); err == nil {
		t.Fatal("engine accepted a model narrower than the dimension tables")
	}
}

// TestEngineInvalidation checks that re-saving a model under the same name
// invalidates the engine's cached partials.
func TestEngineInvalidation(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
	if err := reg.SaveNN("m", net); err != nil {
		t.Fatal(err)
	}
	rows, joined := factRows(t, spec, 10)
	p1, info1, err := eng.PredictCtx(context.Background(), "m", rows)
	if err != nil {
		t.Fatal(err)
	}
	// Replace with a freshly initialized (untrained) network: predictions
	// must change and match the new model, not the stale caches.
	fresh, err := nn.NewNetwork([]int{net.InputDim(), 8, 1}, nn.Sigmoid, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveNN("m", fresh); err != nil {
		t.Fatal(err)
	}
	p2, info2, err := eng.PredictCtx(context.Background(), "m", rows)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version != info1.Version+1 {
		t.Fatalf("versions: %d then %d", info1.Version, info2.Version)
	}
	for i := range p2 {
		want := fresh.Predict(joined[i])
		if d := math.Abs(p2[i].Output - want); d > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("row %d after re-save: %v, want %v", i, p2[i].Output, want)
		}
	}
	if p1[0].Output == p2[0].Output {
		t.Fatal("re-saved model served identical predictions — stale state?")
	}

	// Delete + re-save restarts version numbering at 1; the engine must
	// still notice the replacement (entry identity, not version number).
	if err := reg.Delete("m"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.PredictCtx(context.Background(), "m", rows); !serve.IsUnknownModel(err) {
		t.Fatalf("predict after delete: %v", err)
	}
	other, err := nn.NewNetwork([]int{net.InputDim(), 8, 1}, nn.Sigmoid, 123)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveNN("m", other); err != nil {
		t.Fatal(err)
	}
	if info, _ := reg.Get("m"); info.Version != 1 {
		t.Fatalf("version after delete + re-save = %d, want 1", info.Version)
	}
	p3, _, err := eng.PredictCtx(context.Background(), "m", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p3 {
		want := other.Predict(joined[i])
		if d := math.Abs(p3[i].Output - want); d > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("row %d after delete + re-save: %v, want %v (stale state served)", i, p3[i].Output, want)
		}
	}

	// Deleting a model prunes its engine state: no phantom cache counters
	// survive in Stats.
	if err := reg.Delete("m"); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Models != 0 || s.DimCacheEntries != 0 || s.DimCacheHits != 0 || s.DimCacheMisses != 0 {
		t.Fatalf("stats after deleting the only model: %+v", s)
	}
}

// TestEngineConcurrentPredict fires concurrent batches (and a concurrent
// re-save) at one engine; with -race this pins the engine's locking.
func TestEngineConcurrentPredict(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, model := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 2, CacheEntries: 8})
	if err := reg.SaveNN("m-nn", net); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveGMM("m-gmm", model); err != nil {
		t.Fatal(err)
	}
	rows, _ := factRows(t, spec, 200)
	want, _, err := eng.PredictCtx(context.Background(), "m-nn", rows)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch g % 3 {
				case 0, 1:
					got, _, err := eng.PredictCtx(context.Background(), "m-nn", rows)
					if err != nil {
						t.Error(err)
						return
					}
					for r := range got {
						if got[r].Output != want[r].Output {
							t.Errorf("concurrent predict diverged at row %d", r)
							return
						}
					}
				case 2:
					if _, _, err := eng.PredictCtx(context.Background(), "m-gmm", rows); err != nil {
						t.Error(err)
						return
					}
					eng.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

// newFeats is the feature vector of the tuple TestEngineRoundTrip inserts.
func newFeats(width int) []float64 {
	x := make([]float64, width)
	for i := range x {
		x[i] = 0.5 - float64(i)
	}
	return x
}

// mustPlan wraps leaf dimension tables in a one-hop dimension plan.
func mustPlan(t *testing.T, dims []*storage.Table) *join.DimPlan {
	t.Helper()
	pl, err := join.ExpandDims(dims, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}
