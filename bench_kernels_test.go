package factorml

// Kernel-level benchmarks for the raw-speed pass: the fused GMM E-step
// against its pre-fusion per-term baseline, the fused linalg helpers, and
// the steady-state serving engine (ns/row and allocs/op). Measurements
// are flushed to BENCH_kernels.json (uploaded as a CI artifact alongside
// the other BENCH files; see TestMain). The fused/unfused E-step pair is
// the acceptance measurement for the pass: fused rows/sec must stay well
// above the baseline (≥1.5× at the PR that introduced it).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"factorml/internal/core"
	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/linalg"
	"factorml/internal/nn"
	"factorml/internal/serve"
)

// kernelBenchRecord is one (bench, variant) measurement in BENCH_kernels.json.
type kernelBenchRecord struct {
	Bench       string  `json:"bench"`
	Variant     string  `json:"variant"`
	NsPerOp     float64 `json:"ns_per_op"`
	RowsPerSec  float64 `json:"rows_per_sec,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

var kernelBenchRecorder struct {
	mu      sync.Mutex
	order   []string
	records map[string]kernelBenchRecord
}

// recordKernelBench keeps the latest measurement per (bench, variant) —
// the testing package re-invokes benchmark bodies while calibrating b.N.
func recordKernelBench(rec kernelBenchRecord) {
	kernelBenchRecorder.mu.Lock()
	defer kernelBenchRecorder.mu.Unlock()
	key := rec.Bench + "/" + rec.Variant
	if kernelBenchRecorder.records == nil {
		kernelBenchRecorder.records = make(map[string]kernelBenchRecord)
	}
	if _, seen := kernelBenchRecorder.records[key]; !seen {
		kernelBenchRecorder.order = append(kernelBenchRecorder.order, key)
	}
	kernelBenchRecorder.records[key] = rec
}

// flushKernelsBench writes the kernel measurements to BENCH_kernels.json
// (called from TestMain).
func flushKernelsBench() {
	kernelBenchRecorder.mu.Lock()
	records := make([]kernelBenchRecord, 0, len(kernelBenchRecorder.order))
	for _, key := range kernelBenchRecorder.order {
		records = append(records, kernelBenchRecorder.records[key])
	}
	kernelBenchRecorder.mu.Unlock()
	if len(records) == 0 {
		return
	}
	out := struct {
		Unit    string              `json:"unit"`
		NumCPU  int                 `json:"num_cpu"`
		Results []kernelBenchRecord `json:"results"`
	}{Unit: "ns/op", NumCPU: runtime.NumCPU(), Results: records}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_kernels.json", append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing BENCH_kernels.json: %v\n", err)
	}
}

// E-step kernel workload: a three-part partition (fact + two dimension
// relations, 8 features each) and K=8 components — wide enough that the
// per-row quadratic forms dominate, the regime the fusion targets.
const (
	benchKernelK    = 8
	benchKernelRows = 512
)

var benchKernelDims = []int{8, 8, 8}

// benchKernelModel builds a well-conditioned random mixture (covariances
// are A·Aᵀ + ½I) without touching storage, mirroring the gmm package's
// kernel-test construction.
func benchKernelModel(rng *rand.Rand, K, D int) *gmm.Model {
	m := &gmm.Model{K: K, D: D}
	total := 0.0
	for k := 0; k < K; k++ {
		w := rng.Float64() + 0.1
		m.Weights = append(m.Weights, w)
		total += w
		mean := make([]float64, D)
		for i := range mean {
			mean[i] = rng.NormFloat64()
		}
		m.Means = append(m.Means, mean)
		cov := linalg.NewDense(D, D)
		a := linalg.NewDense(D, D)
		for i := range a.Data() {
			a.Data()[i] = 0.3 * rng.NormFloat64()
		}
		for i := 0; i < D; i++ {
			for j := 0; j < D; j++ {
				s := 0.0
				for l := 0; l < D; l++ {
					s += a.At(i, l) * a.At(j, l)
				}
				cov.Set(i, j, s)
			}
			cov.Set(i, i, cov.At(i, i)+0.5)
		}
		m.Covs = append(m.Covs, cov)
	}
	for k := range m.Weights {
		m.Weights[k] /= total
	}
	return m
}

// BenchmarkKernelEStep times the factorized GMM E-step kernel — fill
// responsibilities for a block of fact tuples against prefilled dimension
// caches — in its fused (production) and pre-fusion (reference) forms.
// One op scores benchKernelRows rows.
func BenchmarkKernelEStep(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p := core.NewPartition(benchKernelDims)
	m := benchKernelModel(rng, benchKernelK, p.D)
	s, err := m.NewScorer(p)
	if err != nil {
		b.Fatal(err)
	}
	sc := s.NewScratch()
	caches := make([][]core.QuadCache, p.Parts()-1)
	for j := range caches {
		caches[j] = make([]core.QuadCache, m.K)
		xr := make([]float64, p.Dims[j+1])
		for i := range xr {
			xr[i] = rng.NormFloat64()
		}
		s.FillDimCaches(caches[j], j+1, xr, &sc.Ops)
	}
	rows := make([][]float64, benchKernelRows)
	for i := range rows {
		rows[i] = make([]float64, p.Dims[0])
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	gamma := make([]float64, m.K)
	fused, unfused := s.EStepBenchHooks()
	for _, v := range []struct {
		name   string
		kernel func([]float64, [][]core.QuadCache, *gmm.ScoreScratch, []float64) float64
	}{{"fused", fused}, {"unfused", unfused}} {
		b.Run(v.name, func(b *testing.B) {
			sink := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, xs := range rows {
					sink += v.kernel(xs, caches, sc, gamma)
				}
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("kernel produced exactly zero likelihood mass")
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			recordKernelBench(kernelBenchRecord{
				Bench: "gmm_estep", Variant: v.name,
				NsPerOp:    nsPerOp,
				RowsPerSec: float64(benchKernelRows) / (nsPerOp / 1e9),
			})
		})
	}
}

// BenchmarkKernelLinalg times the fused helper loops the blocked kernels
// are built from, at the width class the E-step actually uses.
func BenchmarkKernelLinalg(b *testing.B) {
	const n = 64
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	a := linalg.NewDense(n, n)
	b.Run("dotn", func(b *testing.B) {
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += linalg.DotN(x, y, n)
		}
		if sink == 0 && n > 0 {
			b.Log("zero dot product") // keep the sink live
		}
		recordKernelBench(kernelBenchRecord{
			Bench: "linalg_dotn", Variant: fmt.Sprintf("n=%d", n),
			NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
	b.Run("axpyn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.AxpyN(1e-9, x, y, n)
		}
		recordKernelBench(kernelBenchRecord{
			Bench: "linalg_axpyn", Variant: fmt.Sprintf("n=%d", n),
			NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
	b.Run("outer_rows", func(b *testing.B) {
		// The NN layer-1 gradient of one chunk: n example rows of δ⁰ (x)
		// against as many input rows (y), into an n×n weight gradient.
		xs, ys := make([]float64, n*n), make([]float64, n*n)
		for i := range xs {
			xs[i], ys[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for i := 0; i < b.N; i++ {
			linalg.OuterAccumRows(a, xs, ys, n)
		}
		recordKernelBench(kernelBenchRecord{
			Bench: "linalg_outer_rows", Variant: fmt.Sprintf("n=%d rows=%d", n, n),
			NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
	b.Run("syrk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.SyrkAccum(a, 0.5, x)
		}
		recordKernelBench(kernelBenchRecord{
			Bench: "linalg_syrk", Variant: fmt.Sprintf("n=%d", n),
			NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
}

// BenchmarkKernelEnginePredict times the steady-state serving path —
// PredictInto over a warm single-worker engine into a caller-owned
// buffer — and records ns/row plus allocs/op (which the zero-alloc pin
// in internal/serve holds at exactly 0).
func BenchmarkKernelEnginePredict(b *testing.B) {
	db := benchDB(b)
	spec, err := data.Generate(db, "kp", data.SynthConfig{
		NS: 2000, NR: []int{100}, DS: 6, DR: []int{4}, Seed: 5, WithTarget: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	nres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{benchNH}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	gres, err := gmm.TrainF(db, spec, gmm.Config{K: 4, MaxIter: 1, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	reg, err := serve.NewRegistry(db)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.SaveNN("k-nn", nres.Net); err != nil {
		b.Fatal(err)
	}
	if err := reg.SaveGMM("k-gmm", gres.Model); err != nil {
		b.Fatal(err)
	}
	var rows []serve.Row
	sc := spec.S.NewScanner()
	for sc.Next() {
		tp := sc.Tuple()
		rows = append(rows, serve.Row{
			Fact: append([]float64{}, tp.Features...),
			FKs:  append([]int64{}, tp.Keys[1:]...),
		})
		if len(rows) == 256 {
			break
		}
	}
	if err := sc.Err(); err != nil {
		b.Fatal(err)
	}
	eng, err := serve.NewEngine(reg, spec.Plan(), serve.EngineConfig{NumWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]serve.Prediction, len(rows))
	for _, model := range []string{"k-nn", "k-gmm"} {
		b.Run(model, func(b *testing.B) {
			// Warm the dimension caches and the scratch pool so the loop
			// measures the steady state the zero-alloc pin covers.
			for i := 0; i < 3; i++ {
				if _, err := eng.PredictInto(model, rows, out); err != nil {
					b.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := eng.PredictInto(model, rows, out); err != nil {
					b.Fatal(err)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.PredictInto(model, rows, out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			recordKernelBench(kernelBenchRecord{
				Bench: "engine_predict", Variant: model,
				NsPerOp:     nsPerOp,
				RowsPerSec:  float64(len(rows)) / (nsPerOp / 1e9),
				AllocsPerOp: allocs,
			})
		})
	}
}
