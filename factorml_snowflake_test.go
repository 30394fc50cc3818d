package factorml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"factorml/internal/plan"
)

// snowflakeFixture is a depth-3 hierarchy built through the public API:
//
//	orders ⋈ items ⋈ categories ⋈ suppliers
//	              └─ brands
type snowflakeFixture struct {
	fact                                 *FactTable
	items, categories, suppliers         *DimensionTable
	brands                               *DimensionTable
	nItems, nCats, nSupp, nBrands, nRows int
}

func buildSnowflakeFixture(t *testing.T, db *DB, nRows int) *snowflakeFixture {
	t.Helper()
	fx := &snowflakeFixture{nItems: 30, nCats: 8, nSupp: 4, nBrands: 5, nRows: nRows}
	rng := rand.New(rand.NewSource(17))
	var err error
	fx.suppliers, err = db.CreateDimensionTable("suppliers", []string{"rating"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fx.nSupp; i++ {
		if err := fx.suppliers.Append(int64(i), []float64{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	fx.categories, err = db.CreateDimensionTable("categories", []string{"margin", "rate"}, fx.suppliers)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fx.nCats; i++ {
		err := fx.categories.AppendRefs(int64(i), []int64{int64(rng.Intn(fx.nSupp))},
			[]float64{rng.NormFloat64(), rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
	}
	fx.brands, err = db.CreateDimensionTable("brands", []string{"prestige"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fx.nBrands; i++ {
		if err := fx.brands.Append(int64(i), []float64{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	fx.items, err = db.CreateDimensionTable("items", []string{"price", "weight"}, fx.categories, fx.brands)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fx.nItems; i++ {
		err := fx.items.AppendRefs(int64(i),
			[]int64{int64(rng.Intn(fx.nCats)), int64(rng.Intn(fx.nBrands))},
			[]float64{rng.NormFloat64(), rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
	}
	fx.fact, err = db.CreateFactTable("orders", []string{"amount", "hour"}, true, fx.items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRows; i++ {
		a := rng.NormFloat64()
		err := fx.fact.Append(int64(i), []int64{int64(rng.Intn(fx.nItems))},
			[]float64{a, rng.NormFloat64()}, 0.5*a)
		if err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

// TestSnowflakeServingMatchesDense trains over the depth-3 snowflake,
// serves the models over HTTP with only the DIRECT foreign key on each
// request row, and checks every prediction against the dense model applied
// to the hand-assembled joined vector — the engine resolved
// items → categories → suppliers and items → brands on its own.
func TestSnowflakeServingMatchesDense(t *testing.T) {
	db := openDB(t)
	fx := buildSnowflakeFixture(t, db, 300)
	ds, err := db.Dataset(fx.fact)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := TrainNN(ds, Factorized, NNConfig{Hidden: []int{5}, Epochs: 2, LearningRate: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 3, Tol: 1e-300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveNN("sf-nn", nres.Net); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveGMM("sf-gmm", gres.Model); err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(db, []string{"items"}, WithEngineConfig(ServeConfig{NumWorkers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// Assemble expected joined vectors by following the hierarchy by hand.
	type reqRow struct {
		Fact []float64 `json:"fact"`
		FKs  []int64   `json:"fks"`
	}
	var rows []reqRow
	var joined [][]float64
	err = ds.Stream(func(sid int64, x []float64, y float64) error {
		if len(rows) >= 40 {
			return nil
		}
		joined = append(joined, append([]float64{}, x...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := fx.fact.tbl.NewScanner()
	for sc.Next() && len(rows) < 40 {
		tp := sc.Tuple()
		rows = append(rows, reqRow{Fact: append([]float64{}, tp.Features...), FKs: append([]int64{}, tp.Keys[1:]...)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{"rows": rows})
	resp, err := http.Post(ts.URL+"/v1/models/sf-nn/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var nout struct {
		Predictions []struct {
			Output *float64 `json:"output"`
			Err    string   `json:"error"`
		} `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&nout); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nout.Predictions) != len(rows) {
		t.Fatalf("%d predictions for %d rows", len(nout.Predictions), len(rows))
	}
	for i, p := range nout.Predictions {
		if p.Err != "" {
			t.Fatalf("row %d: %s", i, p.Err)
		}
		want := nres.Net.Predict(joined[i])
		if d := math.Abs(*p.Output - want); d > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("row %d: served %v, dense %v (diff %g)", i, *p.Output, want, d)
		}
	}

	resp, err = http.Post(ts.URL+"/v1/models/sf-gmm/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var gout struct {
		Predictions []struct {
			LogProb *float64 `json:"log_prob"`
			Cluster *int     `json:"cluster"`
			Err     string   `json:"error"`
		} `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gout); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i, p := range gout.Predictions {
		if p.Err != "" {
			t.Fatalf("row %d: %s", i, p.Err)
		}
		want := gres.Model.LogProb(joined[i])
		if d := math.Abs(*p.LogProb - want); d > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("row %d: served log-prob %v, dense %v (diff %g)", i, *p.LogProb, want, d)
		}
		if wc := gres.Model.Predict(joined[i]); *p.Cluster != wc {
			t.Fatalf("row %d: served cluster %d, dense %d", i, *p.Cluster, wc)
		}
	}
}

// TestSnowflakeConcurrentServeIngestDimUpdate is the -race stress test:
// one goroutine hammers predictions against a snowflake-served model while
// others ingest fact rows and update dimension tuples at EVERY level of
// the hierarchy — including mid-level category updates that repoint their
// supplier reference, which must propagate through the serving cache
// without a restart. Auto-refresh republishes models concurrently.
func TestSnowflakeConcurrentServeIngestDimUpdate(t *testing.T) {
	db := openDB(t)
	fx := buildSnowflakeFixture(t, db, 250)
	ds, err := db.Dataset(fx.fact)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 2, Tol: 1e-300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveGMM("sf-gmm", gres.Model); err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(db, []string{"items"}, WithEngineConfig(ServeConfig{NumWorkers: 2}),
		WithStream("orders", StreamPolicy{RefreshRows: 40, NumWorkers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	post := func(path string, payload any) (int, []byte) {
		body, _ := json.Marshal(payload)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, []byte(err.Error())
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	const iters = 60
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	wg.Add(4)
	go func() { // predictor
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			code, body := post("/v1/models/sf-gmm/predict", map[string]any{
				"rows": []map[string]any{{"fact": []float64{0.1, 0.2}, "fks": []int64{int64(i % fx.nItems)}}},
			})
			if code != http.StatusOK {
				errCh <- fmt.Errorf("predict status %d: %s", code, body)
				return
			}
		}
	}()
	go func() { // fact ingester (triggers auto-refresh + republish)
		defer wg.Done()
		for i := 0; i < iters; i++ {
			sid := int64(10000 + i)
			code, body := post("/v1/ingest", StreamBatch{Facts: []FactRow{
				{SID: sid, FKs: []int64{sid % int64(fx.nItems)}, Features: []float64{0.3, 0.7}, Target: 0.15},
			}})
			if code != http.StatusOK {
				errCh <- fmt.Errorf("ingest status %d: %s", code, body)
				return
			}
		}
	}()
	go func() { // mid-level dimension updater: categories repoint suppliers
		defer wg.Done()
		for i := 0; i < iters; i++ {
			code, body := post("/v1/ingest", StreamBatch{Dims: []DimUpdate{
				{Table: "categories", RID: int64(i % fx.nCats),
					FKs:      []int64{int64(i % fx.nSupp)},
					Features: []float64{float64(i) * 0.01, -float64(i) * 0.01}},
			}})
			if code != http.StatusOK {
				errCh <- fmt.Errorf("category update status %d: %s", code, body)
				return
			}
		}
	}()
	go func() { // leaf-level updater: suppliers
		defer wg.Done()
		for i := 0; i < iters; i++ {
			code, body := post("/v1/ingest", StreamBatch{Dims: []DimUpdate{
				{Table: "suppliers", RID: int64(i % fx.nSupp), Features: []float64{float64(i) * 0.02}},
			}})
			if code != http.StatusOK {
				errCh <- fmt.Errorf("supplier update status %d: %s", code, body)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The system is still coherent: a final prediction resolves the whole
	// (heavily updated) hierarchy and matches the dense score of the
	// CURRENT model over the CURRENT dimension tuples.
	gm, err := db.LoadGMM("sf-gmm")
	if err != nil {
		t.Fatal(err)
	}
	code, body := post("/v1/models/sf-gmm/predict", map[string]any{
		"rows": []map[string]any{{"fact": []float64{0.5, -0.5}, "fks": []int64{3}}},
	})
	if code != http.StatusOK {
		t.Fatalf("final predict status %d: %s", code, body)
	}
	var out struct {
		Predictions []struct {
			LogProb *float64 `json:"log_prob"`
			Err     string   `json:"error"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Predictions[0].Err != "" {
		t.Fatal(out.Predictions[0].Err)
	}
	// Assemble the joined vector from the stored tables (post-updates).
	x := []float64{0.5, -0.5}
	itemTp, catTp, brandTp, suppTp := tupleOf(t, fx.items, 3), StorageTuple{}, StorageTuple{}, StorageTuple{}
	catTp = tupleOf(t, fx.categories, itemTp.Keys[1])
	brandTp = tupleOf(t, fx.brands, itemTp.Keys[2])
	suppTp = tupleOf(t, fx.suppliers, catTp.Keys[1])
	x = append(x, itemTp.Features...)
	x = append(x, catTp.Features...)
	x = append(x, suppTp.Features...)
	x = append(x, brandTp.Features...)
	want := gm.LogProb(x)
	if d := math.Abs(*out.Predictions[0].LogProb - want); d > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("final served log-prob %v, dense over updated hierarchy %v (diff %g)", *out.Predictions[0].LogProb, want, d)
	}
}

// StorageTuple mirrors the bits of storage.Tuple the final-coherence check
// needs without importing internal/storage in the public-API test file.
type StorageTuple struct {
	Keys     []int64
	Features []float64
}

// tupleOf scans a dimension table for the tuple with the given rid.
func tupleOf(t *testing.T, dt *DimensionTable, rid int64) StorageTuple {
	t.Helper()
	sc := dt.tbl.NewScanner()
	for sc.Next() {
		tp := sc.Tuple()
		if tp.PrimaryKey() == rid {
			return StorageTuple{Keys: append([]int64{}, tp.Keys...), Features: append([]float64{}, tp.Features...)}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no tuple %d in %q", rid, dt.Name())
	return StorageTuple{}
}

// TestSnowflakeFactorizedOpsAdvantage pins the FLOP saving of the
// factorized path on a shared-sub-dimension snowflake — a depth-3 hierarchy
// of 150 → 37 → 9 tuples under 6000 fact rows, so a direct dimension
// tuple's work (its whole subtree's, which the join runner appends to it)
// is shared by 40 fact rows: the recursive analogue of the paper's
// Eq. 7–12 savings, in the same core.Ops accounting. The mixture saves at
// least 2×. The network factorizes its layer-1 forward pass only (its
// backward pass does the dense path's multiplications, Eq. 28–29), so its
// saving is whatever the planner's cost model says it is: the measured
// counts must equal the estimate, and the ratio must exceed 1.
func TestSnowflakeFactorizedOpsAdvantage(t *testing.T) {
	db := openDB(t)
	ds, err := GenerateSynthetic(db, "snowops", SyntheticConfig{
		NS: 6000, NR: []int{150}, DS: 2, DR: []int{8},
		Depth: 3, DimsPerLevel: 1,
		Seed: 11, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gcfg := GMMConfig{K: 3, MaxIter: 2, Tol: 1e-300, Seed: 1, NumWorkers: 1}
	ncfg := NNConfig{Hidden: []int{16}, Epochs: 2, LearningRate: 0.05, Seed: 1, NumWorkers: 1}

	flops := map[Algorithm]float64{}
	for _, algo := range []Algorithm{Materialized, Factorized} {
		res, err := TrainGMM(ds, algo, gcfg)
		if err != nil {
			t.Fatal(err)
		}
		flops[algo] = float64(res.Stats.Ops.Total())
	}
	ratio := flops[Materialized] / flops[Factorized]
	t.Logf("gmm: materialized %.3g FLOPs, factorized %.3g FLOPs (%.2fx fewer)", flops[Materialized], flops[Factorized], ratio)
	if ratio < 2 {
		t.Errorf("gmm: factorized does only %.2fx fewer FLOPs than materialized, want >= 2x", ratio)
	}

	np, err := PlanNN(ds, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Materialized, Factorized} {
		res, err := TrainNN(ds, algo, ncfg)
		if err != nil {
			t.Fatal(err)
		}
		if est := np.Estimate(plan.Strategy(algo)).Ops; est != res.Stats.Ops {
			t.Errorf("%v-NN: planner estimates %+v, training measured %+v", algo, est, res.Stats.Ops)
		}
		flops[algo] = float64(res.Stats.Ops.Total())
	}
	ratio = flops[Materialized] / flops[Factorized]
	t.Logf("nn: materialized %.3g FLOPs, factorized %.3g FLOPs (%.2fx fewer)", flops[Materialized], flops[Factorized], ratio)
	if ratio <= 1 {
		t.Errorf("nn: factorized charges %.3g FLOPs, materialized %.3g: no saving", flops[Factorized], flops[Materialized])
	}
}

// TestSharedSubDimensionPagesPricedOnce pins the planner's resident page
// term on a snowflake that reaches one table along two paths — orders →
// {items → brands, stores → brands}: the join pins brands once, and every
// strategy makes exactly the page accesses the planner prices.
func TestSharedSubDimensionPagesPricedOnce(t *testing.T) {
	db := openDB(t)
	rng := rand.New(rand.NewSource(3))
	brands, err := db.CreateDimensionTable("brands", []string{"prestige", "age"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ { // several pages
		if err := brands.Append(int64(i), []float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	var parents []*DimensionTable
	for _, name := range []string{"items", "stores"} {
		d, err := db.CreateDimensionTable(name, []string{name + "_x"}, brands)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if err := d.AppendRefs(int64(i), []int64{int64(rng.Intn(1500))}, []float64{rng.NormFloat64()}); err != nil {
				t.Fatal(err)
			}
		}
		parents = append(parents, d)
	}
	fact, err := db.CreateFactTable("orders", []string{"amount"}, true, parents...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		a := rng.NormFloat64()
		if err := fact.Append(int64(i), []int64{int64(rng.Intn(30)), int64(rng.Intn(30))}, []float64{a}, a); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(fact)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GMMConfig{K: 2, MaxIter: 2, Tol: 1e-300, Seed: 5, NumWorkers: 1}
	gp, err := PlanGMM(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Materialized, Streaming, Factorized} {
		res, err := TrainGMM(ds, algo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if est, got := gp.Estimate(plan.Strategy(algo)).Pages, res.Stats.IO.LogicalReads+res.Stats.IO.PageWrites; est != got {
			t.Errorf("%v-GMM: planner prices %d page accesses, training made %d", algo, est, got)
		}
	}
}
