package nn

import (
	"fmt"
	"testing"

	"factorml/internal/plan"
)

// assertNetsBitIdentical fails unless the two results carry bit-for-bit
// equal networks, loss traces and op counts.
func assertNetsBitIdentical(t *testing.T, name string, r1, rn *Result) {
	t.Helper()
	if d := r1.Net.MaxParamDiff(rn.Net); d != 0 {
		t.Errorf("%s: max parameter diff %g between worker counts, want bit-identical", name, d)
	}
	if len(r1.Stats.Loss) != len(rn.Stats.Loss) {
		t.Fatalf("%s: epoch counts differ: %d vs %d", name, len(r1.Stats.Loss), len(rn.Stats.Loss))
	}
	for i := range r1.Stats.Loss {
		if r1.Stats.Loss[i] != rn.Stats.Loss[i] {
			t.Errorf("%s: loss[%d] %v vs %v, want bit-identical", name, i, r1.Stats.Loss[i], rn.Stats.Loss[i])
		}
	}
	if r1.Stats.Ops != rn.Stats.Ops {
		t.Errorf("%s: op counts differ: %+v vs %+v", name, r1.Stats.Ops, rn.Stats.Ops)
	}
}

// TestParallelDeterminism asserts that for all three execution strategies,
// in both batching modes, the network trained with 4 workers is bit-for-bit
// the network trained sequentially.
func TestParallelDeterminism(t *testing.T) {
	trainers := map[string]plan.Strategy{
		"M-NN": plan.Materialized, "S-NN": plan.Streaming, "F-NN": plan.Factorized,
	}
	for _, mode := range []BatchMode{Epoch, Block} {
		db := openDB(t)
		// 600 dimension tuples span several pages, so BlockPages=1 forces
		// several mini-batch blocks (barrier + per-block gradient steps).
		spec := synthBinary(t, db, 1500, 600, 3, 4)
		spec.BlockPages = 1
		for name, s := range trainers {
			cfg := Config{Hidden: []int{12}, Epochs: 3, Mode: mode}
			cfg.NumWorkers = 1
			r1, err := Train(db, spec, s, cfg)
			if err != nil {
				t.Fatalf("%s mode=%d workers=1: %v", name, mode, err)
			}
			for _, w := range []int{2, 4} {
				cfg.NumWorkers = w
				rn, err := Train(db, spec, s, cfg)
				if err != nil {
					t.Fatalf("%s mode=%d workers=%d: %v", name, mode, w, err)
				}
				assertNetsBitIdentical(t, fmt.Sprintf("%s/mode=%d/workers=%d", name, mode, w), r1, rn)
			}
		}
	}
}

// TestParallelDeterminismMultiway covers the multi-way join path of the
// factorized trainer (resident caches + cross-relation gradient columns).
func TestParallelDeterminismMultiway(t *testing.T) {
	db := openDB(t)
	spec := synthMulti(t, db, 1200, []int{50, 20}, 2, []int{3, 2})
	cfg := Config{Hidden: []int{10}, Epochs: 2, Mode: Block}
	cfg.NumWorkers = 1
	r1, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumWorkers = 4
	r4, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertNetsBitIdentical(t, "F-NN/multiway", r1, r4)
}
