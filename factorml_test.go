package factorml

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// buildRetail assembles a small orders ⋈ items star schema through the
// public API.
func buildRetail(t *testing.T, db *DB, nOrders, nItems int) *Dataset {
	t.Helper()
	items, err := db.CreateDimensionTable("items", []string{"price", "size", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nItems; i++ {
		err := items.Append(int64(i), []float64{float64(10 + i), float64(i % 5), 0.5 * float64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	orders, err := db.CreateFactTable("orders", []string{"amount", "hour"}, true, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nOrders; i++ {
		err := orders.Append(int64(i), []int64{int64(i % nItems)},
			[]float64{float64(i%7) + 0.5, float64(i % 24)}, float64(i%3))
		if err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(orders)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPublicAPIDatasetShape(t *testing.T) {
	db := openDB(t)
	ds := buildRetail(t, db, 100, 8)
	if ds.JoinedWidth() != 5 {
		t.Fatalf("JoinedWidth = %d, want 5", ds.JoinedWidth())
	}
	if ds.NumRows() != 100 {
		t.Fatalf("NumRows = %d, want 100", ds.NumRows())
	}
	count := 0
	err := ds.Stream(func(sid int64, x []float64, y float64) error {
		if len(x) != 5 {
			t.Fatalf("streamed %d features", len(x))
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("streamed %d rows", count)
	}
}

func TestPublicAPITrainGMMAllAlgorithms(t *testing.T) {
	db := openDB(t)
	ds := buildRetail(t, db, 200, 10)
	var models []*GMMModel
	for _, algo := range []Algorithm{Materialized, Streaming, Factorized} {
		res, err := TrainGMM(ds, algo, GMMConfig{K: 2, MaxIter: 4, Tol: 1e-12})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		models = append(models, res.Model)
	}
	if d := models[0].MaxParamDiff(models[1]); d > 1e-9 {
		t.Fatalf("materialized vs streaming differ by %v", d)
	}
	if d := models[1].MaxParamDiff(models[2]); d > 1e-7 {
		t.Fatalf("streaming vs factorized differ by %v", d)
	}
}

func TestPublicAPITrainNNAllAlgorithms(t *testing.T) {
	// The Block-mode case steps once per R1 block over a four-page R1 cut
	// into one-page blocks: all three access paths must cut the same
	// mini-batches, the materialized one included (it used to ignore a
	// block size it was not handed and stepped once per epoch instead).
	multiBlock, err := GenerateSynthetic(openDB(t), "blk", SyntheticConfig{
		NS: 3000, NR: []int{2000}, DS: 2, DR: []int{1}, WithTarget: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	multiBlock.spec.BlockPages = 1
	if p := multiBlock.spec.Rs[0].NumPages(); p < 3 {
		t.Fatalf("R1 spans %d pages, want >= 3", p)
	}
	for _, tc := range []struct {
		name string
		ds   *Dataset
		cfg  NNConfig
	}{
		{"epoch", buildRetail(t, openDB(t), 150, 10), NNConfig{Hidden: []int{6}, Act: Sigmoid, Epochs: 3, LearningRate: 0.01}},
		{"block", multiBlock, NNConfig{Hidden: []int{6}, Act: Sigmoid, Epochs: 3, LearningRate: 0.01, Mode: BlockUpdates}},
	} {
		var nets []*NNNetwork
		for _, algo := range []Algorithm{Materialized, Streaming, Factorized} {
			res, err := TrainNN(tc.ds, algo, tc.cfg)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, algo, err)
			}
			nets = append(nets, res.Net)
		}
		if d := nets[0].MaxParamDiff(nets[1]); d > 1e-9 {
			t.Fatalf("%s: materialized vs streaming differ by %v", tc.name, d)
		}
		if d := nets[1].MaxParamDiff(nets[2]); d > 1e-6 {
			t.Fatalf("%s: streaming vs factorized differ by %v", tc.name, d)
		}
	}
}

func TestPublicAPIUnknownAlgorithm(t *testing.T) {
	db := openDB(t)
	ds := buildRetail(t, db, 50, 5)
	if _, err := TrainGMM(ds, Algorithm(99), GMMConfig{K: 1}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := TrainNN(ds, Algorithm(99), NNConfig{}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if Algorithm(99).String() == "" || Factorized.String() != "factorized" {
		t.Fatal("Algorithm.String wrong")
	}
}

func TestPublicAPIGenerateSynthetic(t *testing.T) {
	db := openDB(t)
	ds, err := GenerateSynthetic(db, "syn", SyntheticConfig{
		NS: 300, NR: []int{20}, DS: 3, DR: []int{4}, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainNN(ds, Factorized, NNConfig{Hidden: []int{5}, Epochs: 2, LearningRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Epochs != 2 || len(res.Stats.Loss) != 2 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

func TestPublicAPIRealShapes(t *testing.T) {
	shapes := RealDatasetShapes()
	if len(shapes) < 8 {
		t.Fatalf("expected the paper's real dataset shapes, got %d", len(shapes))
	}
	db := openDB(t)
	ds, err := GenerateRealShape(db, "Walmart", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 2, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Stats.FinalLL()) {
		t.Fatal("NaN log-likelihood")
	}
	if _, err := GenerateRealShape(db, "missing", 0.1, 1); err == nil {
		t.Fatal("unknown shape should fail")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := openDB(t)
	if _, err := db.CreateFactTable("s", nil, false); err == nil {
		t.Fatal("fact table without dimensions should fail")
	}
	items, err := db.CreateDimensionTable("i", []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateFactTable("o", []string{"g"}, false, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := orders.Append(1, []int64{1, 2}, []float64{1}, 0); err == nil {
		t.Fatal("fk arity mismatch should fail")
	}
}

// TestPublicAPIModelRegistry covers the facade's save/load/list/delete
// surface and the persistence of models across Open cycles.
func TestPublicAPIModelRegistry(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := buildRetail(t, db, 120, 8)
	nres, err := TrainNN(ds, Factorized, NNConfig{Hidden: []int{6}, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveNN("retail-nn", nres.Net); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveGMM("retail-gmm", gres.Model); err != nil {
		t.Fatal(err)
	}
	models, err := db.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Kind != KindGMM || models[1].Kind != KindNN {
		t.Fatalf("Models = %+v", models)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	net, err := db2.LoadNN("retail-nn")
	if err != nil {
		t.Fatal(err)
	}
	if d := net.MaxParamDiff(nres.Net); d != 0 {
		t.Fatalf("reloaded network differs by %g, want bit-identical", d)
	}
	model, err := db2.LoadGMM("retail-gmm")
	if err != nil {
		t.Fatal(err)
	}
	if d := model.MaxParamDiff(gres.Model); d != 0 {
		t.Fatalf("reloaded mixture differs by %g, want bit-identical", d)
	}
	if err := db2.DeleteModel("retail-gmm"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.LoadGMM("retail-gmm"); err == nil {
		t.Fatal("LoadGMM succeeded after DeleteModel")
	}
}

// TestPublicAPIPredictionServer boots the facade's HTTP handler and checks
// a served prediction bit-for-bit against the in-process network — and a
// diagonal mixture through the registry and the same server: it comes back
// diagonal and is served as Model.LogProb scores it.
func TestPublicAPIPredictionServer(t *testing.T) {
	db := openDB(t)
	ds := buildRetail(t, db, 120, 8)
	nres, err := TrainNN(ds, Factorized, NNConfig{Hidden: []int{6}, Epochs: 2, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveNN("retail-nn", nres.Net); err != nil {
		t.Fatal(err)
	}
	gres, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 2, NumWorkers: 1, Diagonal: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveGMM("retail-igmm", gres.Model); err != nil {
		t.Fatal(err)
	}
	igmm, err := db.LoadGMM("retail-igmm")
	if err != nil || !igmm.Diagonal {
		t.Fatalf("LoadGMM of a diagonal mixture: %+v, err %v", igmm, err)
	}
	handler, err := NewServer(db, []string{"items"}, WithEngineConfig(ServeConfig{NumWorkers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	gresp, err := http.Post(ts.URL+"/v1/models/retail-igmm/predict", "application/json",
		strings.NewReader(`{"rows":[{"fact":[1.5,10],"fks":[3]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	var gout struct {
		Predictions []struct {
			LogProb *float64 `json:"log_prob"`
		} `json:"predictions"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&gout); err != nil {
		t.Fatal(err)
	}
	if len(gout.Predictions) != 1 || gout.Predictions[0].LogProb == nil {
		t.Fatalf("diagonal mixture response = %+v", gout)
	}
	wantLP := igmm.LogProb([]float64{1.5, 10, 13, 3, 1.5})
	if got := *gout.Predictions[0].LogProb; math.Abs(got-wantLP) > 1e-9*(1+math.Abs(wantLP)) {
		t.Fatalf("diagonal mixture served log_prob %v, Model.LogProb %v", got, wantLP)
	}

	resp, err := http.Post(ts.URL+"/v1/models/retail-nn/predict", "application/json",
		strings.NewReader(`{"rows":[{"fact":[1.5,10],"fks":[3]},{"fact":[1.5,10],"fks":[3]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var out struct {
		Predictions []struct {
			Output *float64 `json:"output"`
		} `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Predictions) != 2 || out.Predictions[0].Output == nil {
		t.Fatalf("response = %+v", out)
	}
	// items tuple 3 has features [13, 3, 1.5] (see buildRetail).
	want := nres.Net.Predict([]float64{1.5, 10, 13, 3, 1.5})
	if got := *out.Predictions[0].Output; math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("served %v, in-process %v", got, want)
	}
	if *out.Predictions[0].Output != *out.Predictions[1].Output {
		t.Fatal("identical rows served different outputs")
	}

	// The repeated foreign key must register as a dimension-cache hit.
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		HitRate float64 `json:"dim_cache_hit_rate"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.HitRate == 0 {
		t.Fatal("dimension-cache hit rate is zero after a repeated fk")
	}
}

// TestBenchmarkHarnessCompiles vets benchmark/, a nested module that
// `go build ./...` and `go test ./...` never compile although it calls
// internal/* exports — so a change that removes or renames one of them
// fails here and not first in the benchmark run.
func TestBenchmarkHarnessCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool over benchmark/")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", ".")
	cmd.Dir = "benchmark"
	// The nested module has no go.sum and must not reach for the network;
	// GOCACHE is inherited, so the packages this test run built are reused.
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}
