package factorml

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
)

// goldenBitsFile holds the float64 bits of every parameter and output
// TestGoldenBits pins, as hex words keyed by run. Regenerate it with
// FACTORML_GOLDEN_UPDATE=1 go test -run TestGoldenBits . — only when a
// change is meant to move the bits, and say so where the change is
// described.
const goldenBitsFile = "testdata/golden_bits.json"

// goldenTol is the tolerance of a pinned run, relative to each recorded
// word; runs not listed here are compared bit for bit. Full-covariance
// M-/S-GMM score each joined row in one quadratic form whose summation
// order is the scoring kernel's business, so they are pinned to rounding.
var goldenTol = map[string]float64{
	"gmm.m.full": 1e-12,
	"gmm.s.full": 1e-12,
}

// buildGoldenSnowflake creates the fixed schema TestGoldenBits trains on:
// orders → items → categories plus a second direct dimension, stores, so
// the factorized trainers see a blocked first dimension with a subtree, a
// resident one, and the cross blocks between them.
func buildGoldenSnowflake(t *testing.T, db *DB) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(2027))
	categories, err := db.CreateDimensionTable("categories", []string{"margin", "rate"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := categories.Append(int64(i), []float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	items, err := db.CreateDimensionTable("items", []string{"price", "weight"}, categories)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		err := items.AppendRefs(int64(i), []int64{int64(rng.Intn(7))}, []float64{rng.NormFloat64(), 1 + 0.5*rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
	}
	stores, err := db.CreateDimensionTable("stores", []string{"size"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := stores.Append(int64(i), []float64{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	fact, err := db.CreateFactTable("orders", []string{"amount", "hour", "qty"}, true, items, stores)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		a, h := rng.NormFloat64(), rng.NormFloat64()
		fks := []int64{int64(rng.Intn(400)), int64(rng.Intn(5))}
		if err := fact.Append(int64(i), fks, []float64{a, h, rng.NormFloat64()}, 0.5*a-0.2*h+0.1*rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(fact)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func gmmWords(m *GMMModel) []float64 {
	w := append([]float64{}, m.Weights...)
	for c := range m.Means {
		w = append(w, m.Means[c]...)
		w = append(w, m.Covs[c].Data()...)
	}
	return w
}

func nnWords(n *NNNetwork, loss []float64) []float64 {
	var w []float64
	for l := range n.W {
		w = append(w, n.W[l].Data()...)
		w = append(w, n.B[l]...)
	}
	return append(w, loss...)
}

// goldenRuns trains every pinned configuration on the golden snowflake
// and returns each run's words: parameters, then the per-iteration
// log-likelihoods or losses.
func goldenRuns(t *testing.T) map[string][]float64 {
	t.Helper()
	db := openDB(t)
	ds := buildGoldenSnowflake(t, db)
	runs := make(map[string][]float64)
	algos := map[string]Algorithm{"m": Materialized, "s": Streaming, "f": Factorized}

	for _, diagonal := range []bool{false, true} {
		structure := "full"
		if diagonal {
			structure = "diag"
		}
		for name, algo := range algos {
			res, err := TrainGMM(ds, algo, GMMConfig{K: 3, MaxIter: 5, Tol: 1e-300, Seed: 5, NumWorkers: 2, Diagonal: diagonal})
			if err != nil {
				t.Fatalf("%s-GMM %s: %v", name, structure, err)
			}
			runs["gmm."+name+"."+structure] = append(gmmWords(res.Model), res.Stats.LogLikelihood...)
		}
	}

	nnRuns := []struct {
		name  string
		cfg   NNConfig
		block bool
		algos []string
	}{
		{"epoch", NNConfig{Hidden: []int{6, 4}, Epochs: 3, LearningRate: 0.05, Seed: 5, NumWorkers: 2}, false, []string{"m", "s", "f"}},
		{"block_tanh", NNConfig{Hidden: []int{6}, Act: Tanh, Mode: BlockUpdates, Epochs: 2, LearningRate: 0.05, Seed: 5, NumWorkers: 2}, true, []string{"m", "s", "f"}},
		{"block_shuffled", NNConfig{Hidden: []int{6}, Act: Tanh, Mode: BlockUpdates, Epochs: 3, LearningRate: 0.05, Seed: 5, ShuffleSeed: 9, NumWorkers: 2}, true, []string{"s", "f"}},
	}
	var epochF *NNNetwork
	for _, r := range nnRuns {
		ds.spec.BlockPages = 0
		if r.block {
			ds.spec.BlockPages = 1 // several R1 blocks, so several steps per epoch
		}
		for _, name := range r.algos {
			res, err := TrainNN(ds, algos[name], r.cfg)
			if err != nil {
				t.Fatalf("%s-NN %s: %v", name, r.name, err)
			}
			runs["nn."+name+"."+r.name] = nnWords(res.Net, res.Stats.Loss)
			if r.name == "epoch" && name == "f" {
				epochF = res.Net
			}
		}
	}
	ds.spec.BlockPages = 0

	// The first 50 joined rows through Predict, and through
	// ForwardFactorized from each part's PartialPreAct.
	widths := append([]int{ds.spec.S.Schema().NumFeatures()}, ds.spec.DirectWidths()...)
	fs := epochF.NewForwardScratch()
	var predict, forward []float64
	err := ds.Stream(func(_ int64, x []float64, _ float64) error {
		if len(predict) == 50 {
			return nil
		}
		predict = append(predict, epochF.Predict(x))
		parts := make([][]float64, len(widths)-1)
		off := widths[0]
		for j := range parts {
			parts[j] = make([]float64, epochF.HiddenWidth())
			epochF.PartialPreAct(parts[j], off, x[off:off+widths[1+j]])
			off += widths[1+j]
		}
		forward = append(forward, epochF.ForwardFactorized(fs, x[:widths[0]], parts))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runs["nn.predict"] = predict
	runs["nn.forward_factorized"] = forward
	return runs
}

// TestGoldenBits pins the trained parameters of every model family and
// access path, and the NN's two forward passes, to the bits recorded in
// testdata: a refactor of a kernel or a driver that keeps its arithmetic
// must not move one of them (goldenTol lists the runs pinned to rounding
// instead). amd64 only: other ports may fuse multiply-adds, which rounds
// differently from the machine that recorded the bits.
func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64 (no fused multiply-add)")
	}
	runs := goldenRuns(t)
	if os.Getenv("FACTORML_GOLDEN_UPDATE") != "" {
		enc := make(map[string][]string, len(runs))
		for name, words := range runs {
			for _, v := range words {
				enc[name] = append(enc[name], strconv.FormatUint(math.Float64bits(v), 16))
			}
		}
		b, err := json.MarshalIndent(enc, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenBitsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBitsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("wrote %s", goldenBitsFile)
	}

	raw, err := os.ReadFile(goldenBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(golden))
	for name := range golden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got, ok := runs[name]
		if !ok {
			t.Errorf("%s: no such run", name)
			continue
		}
		if len(got) != len(golden[name]) {
			t.Errorf("%s: %d words, want %d", name, len(got), len(golden[name]))
			continue
		}
		first, maxRel := -1, 0.0
		for i, h := range golden[name] {
			bits, err := strconv.ParseUint(h, 16, 64)
			if err != nil {
				t.Fatalf("%s word %d: %v", name, i, err)
			}
			want := math.Float64frombits(bits)
			if got[i] == want {
				continue
			}
			if first < 0 {
				first = i
			}
			maxRel = math.Max(maxRel, math.Abs(got[i]-want)/math.Abs(want))
		}
		if first < 0 {
			continue
		}
		if maxRel <= goldenTol[name] {
			t.Logf("%s: moved by at most %.3g relative, within %g", name, maxRel, goldenTol[name])
			continue
		}
		bits, _ := strconv.ParseUint(golden[name][first], 16, 64)
		t.Errorf("%s: word %d is %v, want %v; max relative difference %.3g over the run (tolerance %g)",
			name, first, got[first], math.Float64frombits(bits), maxRel, goldenTol[name])
	}
	// M and S run the same EM over the same rows, none factorized; here
	// every fact tuple joins and the join is one block, so S's chunks (512
	// fact tuples scanned) are M's (512 rows of T) and the bits agree.
	for _, structure := range []string{"full", "diag"} {
		m, s := runs["gmm.m."+structure], runs["gmm.s."+structure]
		for i := range m {
			if math.Float64bits(m[i]) != math.Float64bits(s[i]) {
				t.Errorf("gmm %s: M and S differ at word %d: %v vs %v", structure, i, m[i], s[i])
				break
			}
		}
	}
	if len(runs) != len(golden) {
		t.Errorf("%d runs, %d pinned: regenerate %s", len(runs), len(golden), goldenBitsFile)
	}
}
