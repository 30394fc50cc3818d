package factorml

// BenchmarkSnowflake times — and op-counts — factorized versus
// materialized training over a shared-sub-dimension snowflake: a depth-3
// hierarchy of 150 → 37 → 9 tuples under 6000 fact rows, so a direct
// dimension tuple's work — its whole subtree's, which the join runner
// appends to it — is shared by 40 fact rows. The FLOP counts (core.Ops, the paper's §V-B
// accounting) are flushed to BENCH_snowflake.json; CI asserts the
// factorized path does at least 2× fewer FLOPs than the materialized
// baseline (TestSnowflakeFactorizedOpsAdvantage, which runs without
// -bench so the guarantee holds on every test run).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/nn"
	"factorml/internal/storage"
)

// snowBenchRecord is one (model, algo) measurement in BENCH_snowflake.json.
type snowBenchRecord struct {
	Model   string  `json:"model"`
	Algo    string  `json:"algo"`
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	Mul     int64   `json:"mul"`
	Add     int64   `json:"add"`
	// FlopRatio is materialized FLOPs / this algo's FLOPs (1.0 for the
	// materialized rows themselves).
	FlopRatio float64 `json:"flop_ratio,omitempty"`
}

var snowBench struct {
	mu      sync.Mutex
	order   []string
	records map[string]snowBenchRecord
}

func recordSnowBench(r snowBenchRecord) {
	snowBench.mu.Lock()
	defer snowBench.mu.Unlock()
	key := r.Model + "/" + r.Algo
	if snowBench.records == nil {
		snowBench.records = make(map[string]snowBenchRecord)
	}
	if _, seen := snowBench.records[key]; !seen {
		snowBench.order = append(snowBench.order, key)
	}
	snowBench.records[key] = r
}

// flushSnowflakeBench writes BENCH_snowflake.json (called from TestMain).
func flushSnowflakeBench() {
	snowBench.mu.Lock()
	records := make([]snowBenchRecord, 0, len(snowBench.order))
	for _, key := range snowBench.order {
		records = append(records, snowBench.records[key])
	}
	snowBench.mu.Unlock()
	if len(records) == 0 {
		return
	}
	// Fill in the FLOP ratios against the materialized baseline per model.
	base := make(map[string]float64)
	for _, r := range records {
		if r.Algo == "materialized" {
			base[r.Model] = float64(r.Mul + r.Add)
		}
	}
	for i := range records {
		if b := base[records[i].Model]; b > 0 {
			records[i].FlopRatio = b / float64(records[i].Mul+records[i].Add)
		}
	}
	out := struct {
		Schema  string            `json:"schema"`
		NumCPU  int               `json:"num_cpu"`
		Results []snowBenchRecord `json:"results"`
	}{
		Schema:  "depth-3 snowflake chain, shared sub-dimensions (nS=6000, nR=150 → 37 → 9, dS=2, dR=8)",
		NumCPU:  runtime.NumCPU(),
		Results: records,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_snowflake.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing BENCH_snowflake.json: %v\n", err)
	}
}

// snowBenchSpec generates the shared-sub-dimension schema in a fresh
// database directory.
func snowBenchSpec(tb testing.TB) (*storage.Database, *join.Spec) {
	tb.Helper()
	db, err := storage.Open(tb.TempDir(), storage.Options{PoolPages: -1})
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := data.Generate(db, "snowbench", data.SynthConfig{
		NS: 6000, NR: []int{150}, DS: 2, DR: []int{8},
		Depth: 3, DimsPerLevel: 1,
		Seed: 11, WithTarget: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	return db, spec
}

// measureSnowflakeOps trains GMM and NN with both strategies once and
// records the op counts. withTiming, when set, wraps each training run and
// returns its ns/op measurement for the record.
func measureSnowflakeOps(tb testing.TB, withTiming func(model, algo string, train func()) float64) {
	db, spec := snowBenchSpec(tb)
	gcfg := gmm.Config{K: 3, MaxIter: 2, Tol: 1e-300, Seed: 1, NumWorkers: 1}
	// GroupedGradient is the paper's per-group layer-1 gradient extension:
	// without it the factorized backward still touches every dimension
	// column per joined tuple, which caps the saving well under 2x; with
	// it the dimension gradient flushes once per distinct tuple, like
	// every other factorized quantity. TrainM ignores the flag, and the
	// trained networks still agree to 1e-9.
	ncfg := nn.Config{Hidden: []int{16}, Epochs: 2, LearningRate: 0.05, Seed: 1, NumWorkers: 1, GroupedGradient: true}

	run := func(model, algo string, train func() (mul, add int64, err error)) {
		var mul, add int64
		var nsPerOp float64
		body := func() {
			var err error
			mul, add, err = train()
			if err != nil {
				tb.Fatal(err)
			}
		}
		if withTiming != nil {
			nsPerOp = withTiming(model, algo, body)
		} else {
			body()
		}
		recordSnowBench(snowBenchRecord{Model: model, Algo: algo, Mul: mul, Add: add, NsPerOp: nsPerOp})
	}
	run("gmm", "materialized", func() (int64, int64, error) {
		res, err := gmm.TrainM(db, spec, gcfg)
		if err != nil {
			return 0, 0, err
		}
		return res.Stats.Ops.Mul, res.Stats.Ops.Adds, nil
	})
	run("gmm", "factorized", func() (int64, int64, error) {
		res, err := gmm.TrainF(db, spec, gcfg)
		if err != nil {
			return 0, 0, err
		}
		return res.Stats.Ops.Mul, res.Stats.Ops.Adds, nil
	})
	run("nn", "materialized", func() (int64, int64, error) {
		res, err := nn.TrainM(db, spec, ncfg)
		if err != nil {
			return 0, 0, err
		}
		return res.Stats.Ops.Mul, res.Stats.Ops.Adds, nil
	})
	run("nn", "factorized", func() (int64, int64, error) {
		res, err := nn.TrainF(db, spec, ncfg)
		if err != nil {
			return 0, 0, err
		}
		return res.Stats.Ops.Mul, res.Stats.Ops.Adds, nil
	})
}

// BenchmarkSnowflake times each (model, algo) pair and records ns/op next
// to the FLOP counts in BENCH_snowflake.json.
func BenchmarkSnowflake(b *testing.B) {
	measureSnowflakeOps(b, func(model, algo string, train func()) float64 {
		var nsPerOp float64
		b.Run(model+"/"+algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				train()
			}
			nsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		return nsPerOp
	})
}

// TestSnowflakeFactorizedOpsAdvantage pins the ≥2× FLOP saving of the
// factorized path on the shared-sub-dimension schema — the recursive
// analogue of the paper's Eq. 7–12 savings, measured with the same
// core.Ops accounting — and writes BENCH_snowflake.json even on plain
// test runs, so CI always uploads a fresh artifact.
func TestSnowflakeFactorizedOpsAdvantage(t *testing.T) {
	measureSnowflakeOps(t, nil)
	snowBench.mu.Lock()
	recs := make(map[string]snowBenchRecord, len(snowBench.records))
	for k, v := range snowBench.records {
		recs[k] = v
	}
	snowBench.mu.Unlock()
	for _, model := range []string{"gmm", "nn"} {
		m, f := recs[model+"/materialized"], recs[model+"/factorized"]
		mFlops, fFlops := float64(m.Mul+m.Add), float64(f.Mul+f.Add)
		if mFlops == 0 || fFlops == 0 {
			t.Fatalf("%s: missing op counts (materialized %+v, factorized %+v)", model, m, f)
		}
		ratio := mFlops / fFlops
		t.Logf("%s: materialized %.3g FLOPs, factorized %.3g FLOPs (%.2fx fewer)", model, mFlops, fFlops, ratio)
		if ratio < 2 {
			t.Errorf("%s: factorized does only %.2fx fewer FLOPs than materialized, want >= 2x", model, ratio)
		}
	}
}
