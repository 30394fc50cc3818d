package factorml

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	pathpkg "path"
	"path/filepath"
	"slices"
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

func TestIOStatsExposed(t *testing.T) {
	db := openDB(t)
	ds := buildRetail(t, db, 50, 5)
	db.ResetIOStats()
	if _, err := TrainGMM(ds, Factorized, GMMConfig{K: 1, MaxIter: 1, Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if db.IOStats().LogicalReads == 0 {
		t.Fatal("expected page reads to be counted")
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

// walkSource parses every non-test Go file in the tree (benchmark/, cmd/
// and examples/ included; dot directories skipped) and hands each to visit
// with its slash-separated path.
func walkSource(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// unreferencedOK lists the exported names under internal/ that no non-test
// file mentions on purpose. Everything else exported there must be used by
// name somewhere in the module, benchmark/, cmd/ or examples/.
var unreferencedOK = map[string]string{
	// Called through an interface of the standard library, never by name.
	"MarshalJSON":   "json.Marshaler",
	"UnmarshalJSON": "json.Unmarshaler",
	// Public API through the facade's type alias GMMModel = gmm.Model.
	"BIC": "model selection on a GMMModel",
	"AIC": "model selection on a GMMModel",
	// Oracles the 0-tolerance harnesses and kernel tests compare against.
	"Transpose": "linalg test oracle",
	"Equalish":  "linalg test oracle",
	"NewMatMul": "linalg test oracle",
	"MatVecAdd": "partitioned mat-vec property in linalg's quick tests",
	"L":         "L·Lᵀ = A in the Cholesky tests",
	"Eye":       "identity covariances in factorml_onepass_test.go and gmm/score_test.go",
	// The typed refresh rejection, for library callers to match.
	"IsNonFiniteModel": "stream.NonFiniteModelError in TestRefreshRejectsNonFiniteModel",
}

// benchmarkOnlyOK lists the exported names under internal/ that only
// benchmark/ mentions, each tagged with the ROADMAP item whose benchmark
// change removes its last caller there: item 1 (the gate and ledger) or
// item 14 (the harness measures through the product's surface). The
// program never runs them. The list may only shrink.
var benchmarkOnlyOK = map[string]string{
	"TrainF":               "item 1: gmm.TrainF and nn.TrainF, waiting on benchmark/layers.go's training probes",
	"EStepBenchHooks":      "item 1: gmm/bench_hooks.go, waiting on benchmark/layers.go's fused/unfused E-step probe",
	"NewStreamedSource":    "item 14: the S scan probe becomes a Benchmark* in internal/factor",
	"Lookup":               "item 14: the resident-index lookup probe becomes a Benchmark* in internal/join",
	"PredictInto":          "item 14: the engine probe reads the running server's telemetry",
	"DecodeBinaryResponse": "item 14: the load client decodes the binary wire through the product's surface",
}

// TestInternalPackagesAreReached parses every non-test Go file in the tree
// (benchmark/ included) and fails when code under internal/ is run only by
// its own tests: a package imported by none outside itself, or an exported
// function or method whose name no non-test file mentions other than where
// it is declared (a name-level check — it cannot tell two methods of one
// name apart, which errs towards silence). benchmark/ is a caller for that
// check, but not the program: a name only benchmark/ mentions must sit on
// benchmarkOnlyOK, and one the program uses must not. It also fails when
// cmd/train/main.go reaches below the public facade, which it was rewritten
// on so that the CLI cannot drift from the library again, when
// internal/parallel imports anything under internal/ (the scheduler knows
// nothing of flops or tuples), and when code under internal/ outside
// internal/serve uses a sync.Pool: the training and absorb passes recycle
// their state through the chunk lifecycle, whose allocation counts stay
// exact under the race detector. Last, it fails when the root package or
// code under internal/ other than internal/durable calls os.Rename,
// os.WriteFile, os.Create or os.CreateTemp: every persisted file is
// replaced through internal/durable, which alone knows the write, fsync,
// close, rename, directory-fsync order (cmd/'s report writers hold no
// durable state).
func TestInternalPackagesAreReached(t *testing.T) {
	reached := make(map[string]bool) // package under internal/ -> imported from outside itself
	declared := make(map[string]int) // exported func/method name under internal/ -> declarations
	where := make(map[string]string) // ... -> one declaring file
	mentions := make(map[string]int) // identifier -> occurrences in non-test files
	inBench := make(map[string]int)  // ... of which in benchmark/
	walkSource(t, func(path string, f *ast.File) {
		pkg := "factorml/" + pathpkg.Dir(path)
		internal := strings.HasPrefix(pkg, "factorml/internal/")
		persists := (internal || pkg == "factorml/.") && pkg != "factorml/internal/durable"
		if internal && !reached[pkg] {
			reached[pkg] = false
		}
		for _, imp := range f.Imports {
			to := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(to, "factorml/internal/") {
				continue
			}
			if to != pkg {
				reached[to] = true
			}
			if path == "cmd/train/main.go" {
				t.Errorf("cmd/train/main.go imports %s; it is written on the public facade", to)
			}
			if pkg == "factorml/internal/parallel" {
				t.Errorf("%s imports %s; internal/parallel schedules work and knows nothing about it", path, to)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "Pool" && internal && pkg != "factorml/internal/serve" {
					t.Errorf("%s uses a sync.Pool; a chunked pass's state travels with its chunk (internal/parallel), and only internal/serve pools request-scoped buffers", path)
				}
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "os" && persists {
					switch n.Sel.Name {
					case "Rename", "WriteFile", "Create", "CreateTemp":
						t.Errorf("%s calls os.%s; persist files through internal/durable", path, n.Sel.Name)
					}
				}
			case *ast.Ident:
				mentions[n.Name]++
				if strings.HasPrefix(path, "benchmark/") {
					inBench[n.Name]++
				}
			case *ast.FuncDecl:
				if internal && n.Name.IsExported() {
					declared[n.Name.Name]++
					where[n.Name.Name] = path
				}
			}
			return true
		})
	})
	if len(reached) == 0 {
		t.Fatal("found no package under internal/ (run from the module root)")
	}
	for pkg, ok := range reached {
		if !ok {
			t.Errorf("%s is imported by no non-test file outside itself", pkg)
		}
	}
	if len(unreferencedOK) > 11 {
		t.Errorf("the allowlist holds %d names, want <= 11: delete code instead of listing it", len(unreferencedOK))
	}
	if len(benchmarkOnlyOK) > 6 {
		t.Errorf("benchmarkOnlyOK holds %d names, want <= 6: it may only shrink", len(benchmarkOnlyOK))
	}
	for name, n := range declared {
		_, allowed := unreferencedOK[name]
		_, benchOnly := benchmarkOnlyOK[name]
		used := mentions[name] > n
		switch run := mentions[name]-inBench[name] > n; {
		case !used && !allowed:
			t.Errorf("%s (%s) is exported under internal/ but no non-test file uses it", name, where[name])
		case used && allowed:
			t.Errorf("%s is used by non-test code; drop it from the allowlist", name)
		case used && !run && !benchOnly:
			t.Errorf("%s (%s) is exported under internal/ but only benchmark/ calls it: the program never runs it", name, where[name])
		case run && benchOnly:
			t.Errorf("%s is used by the program; drop it from benchmarkOnlyOK", name)
		}
	}
	for name := range unreferencedOK {
		if declared[name] == 0 {
			t.Errorf("the allowlist names %s, which internal/ no longer declares", name)
		}
	}
	for name, tag := range benchmarkOnlyOK {
		if declared[name] == 0 {
			t.Errorf("benchmarkOnlyOK names %s, which internal/ no longer declares", name)
		}
		if !strings.HasPrefix(tag, "item 1: ") && !strings.HasPrefix(tag, "item 14: ") {
			t.Errorf("benchmarkOnlyOK[%s] = %q: tag it with the ROADMAP item that removes it (\"item 1: …\" or \"item 14: …\")", name, tag)
		}
	}
}

// TestOneExpAndLog fails when a non-test file outside internal/linalg calls
// math.Exp or math.Log. The program's exp and log are linalg.ExpInto and
// linalg.Log: plain Go with every product rounded, so a model's bits do
// not depend on the assembly math.Exp and math.Log have on some
// architectures (scripts/nofma.sh checks the kernels' cross-compiles).
// examples/ is exempt: those mains are written against the public facade
// as a user's program would be, and an exp there draws synthetic inputs,
// not model bits. The architecture skips of TestGoldenBits and
// TestStarNNBytesPinned stay, because the other kernels still fuse
// multiply-adds off amd64.
func TestOneExpAndLog(t *testing.T) {
	walkSource(t, func(path string, f *ast.File) {
		if strings.HasPrefix(path, "internal/linalg/") || strings.HasPrefix(path, "examples/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "math" && (sel.Sel.Name == "Exp" || sel.Sel.Name == "Log") {
					t.Errorf("%s uses math.%s; call linalg.ExpInto / linalg.Log, whose bits are the same on every architecture", path, sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// unsetKnobOK lists the settings no non-test file sets on purpose, each
// with its reason. Everything else TestEveryKnobHasACaller checks must be
// set by some caller.
var unsetKnobOK = map[string]string{
	"monitor.Config.MinWindowRows": "tests in three packages shrink the drift evidence floor to keep their data small",
	"nn.Config.ShuffleSeed":        "the paper's per-epoch key permutation (§VI), library API",
	"plan.Options.FlopsPerPage":    "benchmark/ builds plan.Options; the clock-calibrated planner replaces the field",
	"data.SynthConfig.Clusters":    "the GMM quality tests' generator shape",
	"data.SynthConfig.Noise":       "the GMM quality tests' generator shape",
	"wal.Options.SegmentBytes":     "the WAL rotation tests",
	"gmm.Config.Init":              "the one-step warm-start EM oracle TestStreamStatsOracle checks every stream refresh against",
}

// isKnobType reports whether a struct type's name marks it as settings.
func isKnobType(name string) bool {
	return name == "Limits" || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
}

// TestEveryKnobHasACaller fails when an exported field of a settings
// struct (a type named …Config, …Options, …Policy or Limits, declared in
// a non-test file of the root package or under internal/) is set by name
// in no non-test file other than its own: a composite-literal key or an
// assignment target, in the module, benchmark/, cmd/ or examples/. A knob
// only tests turn is a second behaviour nothing runs; its value belongs in
// a constant. Literal keys are matched against the literal's type
// (through the facade's aliases); keys of an elided literal type and
// assignment targets are matched by field name alone, which errs towards
// silence.
func TestEveryKnobHasACaller(t *testing.T) {
	type set struct {
		typ, field, path string          // typ is "" for an elided literal type or an assignment
		sees             map[string]bool // the setting file's own package and its imports
	}
	declared := make(map[string]string) // "pkg.Type.Field" -> declaring file
	alias := make(map[string]string)    // "pkg.Alias" -> "pkg.Type"
	var sets []set
	walkSource(t, func(path string, f *ast.File) {
		pkg := f.Name.Name
		imports := make(map[string]string) // import name -> package name
		sees := map[string]bool{pkg: true}
		for _, imp := range f.Imports {
			to := strings.Trim(imp.Path.Value, `"`)
			if to != "factorml" && !strings.HasPrefix(to, "factorml/") {
				continue
			}
			name := pathpkg.Base(to)
			sees[name] = true
			if imp.Name != nil {
				imports[imp.Name.Name] = name
			} else {
				imports[name] = name
			}
		}
		typeOf := func(e ast.Expr) string { // "" when e names no type
			switch e := e.(type) {
			case *ast.Ident:
				return pkg + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		knobs := !strings.Contains(path, "/") || strings.HasPrefix(path, "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if n.Assign.IsValid() {
					if to := typeOf(n.Type); to != "" {
						alias[pkg+"."+n.Name.Name] = to
					}
				} else if st, ok := n.Type.(*ast.StructType); ok && knobs && n.Name.IsExported() && isKnobType(n.Name.Name) {
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							if name.IsExported() {
								declared[pkg+"."+n.Name.Name+"."+name.Name] = path
							}
						}
					}
				}
			case *ast.CompositeLit:
				switch n.Type.(type) {
				case *ast.ArrayType, *ast.MapType:
					return true // keys are indexes or map keys, not fields
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							sets = append(sets, set{typeOf(n.Type), key.Name, path, sees})
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						sets = append(sets, set{"", sel.Sel.Name, path, sees})
					}
				}
			}
			return true
		})
	})
	if len(declared) == 0 {
		t.Fatal("found no settings struct (run from the module root)")
	}
	t.Logf("%d exported settings fields", len(declared))
	resolve := func(typ string) string {
		for alias[typ] != "" {
			typ = alias[typ]
		}
		return typ
	}
	split := func(name string) (string, string) { // "a.B.C" -> "a.B", "C"
		i := strings.LastIndexByte(name, '.')
		return name[:i], name[i+1:]
	}
	// An importer of the root sees every package the facade aliases.
	facade := make(map[string]bool)
	for a := range alias {
		if strings.HasPrefix(a, "factorml.") {
			pkg, _ := split(resolve(a))
			facade[pkg] = true
		}
	}
	setBy := make(map[string]bool)
	for _, s := range sets {
		for knob, path := range declared {
			typ, field := split(knob)
			pkg, _ := split(typ)
			if s.field != field || s.path == path {
				continue
			}
			if s.typ != "" {
				setBy[knob] = setBy[knob] || resolve(s.typ) == typ
			} else {
				setBy[knob] = setBy[knob] || s.sees[pkg] || s.sees["factorml"] && facade[pkg]
			}
		}
	}
	for _, knob := range slices.Sorted(maps.Keys(declared)) {
		_, allowed := unsetKnobOK[knob]
		switch {
		case !setBy[knob] && !allowed:
			t.Errorf("%s (%s) is set by no non-test file: make it a constant or give it a caller", knob, declared[knob])
		case setBy[knob] && allowed:
			t.Errorf("%s is set by non-test code; drop it from the allowlist", knob)
		}
	}
	for knob := range unsetKnobOK {
		if declared[knob] == "" {
			t.Errorf("the allowlist names %s, which is no longer declared", knob)
		}
	}
}
