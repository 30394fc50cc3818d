package factorml

// Streaming-ingestion benchmark: the incremental refresh (delta E-step +
// M-step from maintained statistics) is timed against the full statistics
// recompute over the whole table, and the measurements are flushed to
// BENCH_stream.json (uploaded as a CI artifact alongside
// BENCH_parallel.json and BENCH_serve.json; see TestMain). The gap
// between the two phases is the tentpole claim in numbers: refresh cost
// proportional to the delta, not the dataset.

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
	"factorml/internal/join"
	"factorml/internal/storage"
	"factorml/internal/stream"
)

// streamBenchRecord is one (phase, workers) measurement in
// BENCH_stream.json.
type streamBenchRecord struct {
	Phase      string  `json:"phase"`
	Workers    int     `json:"workers"`
	DeltaRows  int     `json:"delta_rows,omitempty"`
	BaseRows   int     `json:"base_rows"`
	NsPerOp    float64 `json:"ns_per_op"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

var streamBenchRecorder struct {
	mu      sync.Mutex
	order   []string
	records map[string]streamBenchRecord
}

func recordStreamBench(rec streamBenchRecord) {
	streamBenchRecorder.mu.Lock()
	defer streamBenchRecorder.mu.Unlock()
	key := fmt.Sprintf("%s/%d", rec.Phase, rec.Workers)
	if streamBenchRecorder.records == nil {
		streamBenchRecorder.records = make(map[string]streamBenchRecord)
	}
	if _, seen := streamBenchRecorder.records[key]; !seen {
		streamBenchRecorder.order = append(streamBenchRecorder.order, key)
	}
	streamBenchRecorder.records[key] = rec
}

// flushStreamBench writes the streaming measurements to BENCH_stream.json
// (called from TestMain).
func flushStreamBench() {
	streamBenchRecorder.mu.Lock()
	records := make([]streamBenchRecord, 0, len(streamBenchRecorder.order))
	for _, key := range streamBenchRecorder.order {
		records = append(records, streamBenchRecorder.records[key])
	}
	streamBenchRecorder.mu.Unlock()
	if len(records) == 0 {
		return
	}
	out := struct {
		Unit    string              `json:"unit"`
		NumCPU  int                 `json:"num_cpu"`
		Results []streamBenchRecord `json:"results"`
	}{Unit: "ns per refresh", NumCPU: runtime.NumCPU(), Results: records}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_stream.json", append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing BENCH_stream.json: %v\n", err)
	}
}

// Streaming workload: a base large enough that a full recompute visibly
// dwarfs the per-delta work.
const (
	benchStreamBase  = 20000
	benchStreamNR    = 200
	benchStreamDelta = 200
	benchStreamK     = 4
)

func benchStreamSetup(b *testing.B) (*storage.Database, *join.Spec, core.Partition, *join.Resolver, *gmm.Model) {
	b.Helper()
	db := benchDB(b)
	spec, err := data.Generate(db, "strm", data.SynthConfig{
		NS: benchStreamBase, NR: []int{benchStreamNR}, DS: benchDS, DR: []int{10},
		Seed: 3, WithTarget: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewPartition([]int{benchDS, 10})
	res, err := gmm.TrainF(db, spec, gmm.Config{K: benchStreamK, MaxIter: 1, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var idxs []*join.ResidentIndex
	for _, r := range spec.Rs {
		ix, err := join.BuildResidentIndex(r)
		if err != nil {
			b.Fatal(err)
		}
		idxs = append(idxs, ix)
	}
	plan := spec.Plan()
	rv, err := join.NewResolver(plan.Parent, plan.Ref, idxs)
	if err != nil {
		b.Fatal(err)
	}
	return db, spec, p, rv, res.Model
}

// BenchmarkStreamIngest sweeps the two refresh phases at 1 and N workers:
//
//	ingest+refresh-incremental — append benchStreamDelta fact rows, absorb
//	  them into the maintained statistics and run the M-step (∝ delta)
//	refresh-full — recompute the statistics over the whole table from
//	  scratch and run the M-step (∝ dataset: the baseline the incremental
//	  path is bit-identical to)
func BenchmarkStreamIngest(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("incremental/workers=%d", workers), func(b *testing.B) {
			_, spec, p, rv, model := benchStreamSetup(b)
			st := stream.NewGMMStats(rv, p.Dims[0], model.K)
			if err := st.Absorb(model, spec.S, workers); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				appendBenchDelta(b, spec, rng, benchStreamDelta)
				b.StartTimer()
				if err := st.Absorb(model, spec.S, workers); err != nil {
					b.Fatal(err)
				}
				if _, err := st.Step(model, 1e-6); err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			recordStreamBench(streamBenchRecord{
				Phase: "ingest+refresh-incremental", Workers: workers,
				DeltaRows: benchStreamDelta, BaseRows: benchStreamBase, NsPerOp: nsPerOp,
				RowsPerSec: float64(benchStreamDelta) / (nsPerOp / 1e9),
			})
		})
		b.Run(fmt.Sprintf("full/workers=%d", workers), func(b *testing.B) {
			_, spec, p, rv, model := benchStreamSetup(b)
			n := int(spec.S.NumTuples())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := stream.NewGMMStats(rv, p.Dims[0], model.K)
				if err := st.Absorb(model, spec.S, workers); err != nil {
					b.Fatal(err)
				}
				if _, err := st.Step(model, 1e-6); err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			recordStreamBench(streamBenchRecord{
				Phase: "refresh-full", Workers: workers,
				BaseRows: n, NsPerOp: nsPerOp,
				RowsPerSec: float64(n) / (nsPerOp / 1e9),
			})
		})
	}
}

func appendBenchDelta(b *testing.B, spec *join.Spec, rng *rand.Rand, n int) {
	b.Helper()
	base := spec.S.NumTuples()
	feats := make([]float64, benchDS)
	for i := 0; i < n; i++ {
		for d := range feats {
			feats[d] = rng.NormFloat64()
		}
		tp := &storage.Tuple{
			Keys:     []int64{base + int64(i), int64(rng.Intn(benchStreamNR))},
			Features: feats,
			Target:   rng.NormFloat64(),
		}
		if err := spec.S.Append(tp); err != nil {
			b.Fatal(err)
		}
	}
	if err := spec.S.Flush(); err != nil {
		b.Fatal(err)
	}
}
