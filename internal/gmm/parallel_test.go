package gmm

import (
	"math"
	"testing"

	"factorml/internal/join"
	"factorml/internal/plan"
)

// assertBitIdentical fails unless the two results carry bit-for-bit equal
// models, log-likelihood traces and op counts.
func assertBitIdentical(t *testing.T, name string, r1, rn *Result) {
	t.Helper()
	if d := r1.Model.MaxParamDiff(rn.Model); d != 0 {
		t.Errorf("%s: max parameter diff %g between worker counts, want bit-identical", name, d)
	}
	for k, w := range r1.Model.Weights {
		if math.IsNaN(w) {
			t.Errorf("%s: weight %d is NaN", name, k)
		}
	}
	if len(r1.Stats.LogLikelihood) != len(rn.Stats.LogLikelihood) {
		t.Fatalf("%s: iteration counts differ: %d vs %d", name,
			len(r1.Stats.LogLikelihood), len(rn.Stats.LogLikelihood))
	}
	for i := range r1.Stats.LogLikelihood {
		if r1.Stats.LogLikelihood[i] != rn.Stats.LogLikelihood[i] {
			t.Errorf("%s: log-likelihood[%d] %v vs %v, want bit-identical", name,
				i, r1.Stats.LogLikelihood[i], rn.Stats.LogLikelihood[i])
		}
	}
	if r1.Stats.Ops != rn.Stats.Ops {
		t.Errorf("%s: op counts differ: %+v vs %+v", name, r1.Stats.Ops, rn.Stats.Ops)
	}
}

// TestParallelDeterminism is the engine's headline guarantee: for all three
// execution strategies the model trained with 4 workers is bit-for-bit the
// model trained sequentially. A binary and a multi-way schema are covered,
// the binary one with BlockPages=1 to force multi-block chunk barriers.
func TestParallelDeterminism(t *testing.T) {
	trainers := map[string]plan.Strategy{
		"M-GMM": plan.Materialized, "S-GMM": plan.Streaming, "F-GMM": plan.Factorized,
	}
	schemas := []struct {
		name  string
		multi bool
	}{
		{"binary", false},
		{"multiway", true},
	}
	for _, sc := range schemas {
		db := openDB(t)
		var spec *join.Spec
		if sc.multi {
			spec = synthMulti(t, db, 1500, []int{60, 25}, 3, []int{4, 2})
		} else {
			// 600 dimension tuples span several pages, so BlockPages=1
			// exercises multi-block chunk barriers.
			spec = synthBinary(t, db, 2000, 600, 3, 5)
			spec.BlockPages = 1
		}
		for name, s := range trainers {
			cfg := Config{K: 3, MaxIter: 4, Tol: 1e-12}
			cfg.NumWorkers = 1
			r1, err := Train(db, spec, s, cfg)
			if err != nil {
				t.Fatalf("%s/%s workers=1: %v", sc.name, name, err)
			}
			for _, w := range []int{2, 4} {
				cfg.NumWorkers = w
				rn, err := Train(db, spec, s, cfg)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", sc.name, name, w, err)
				}
				assertBitIdentical(t, sc.name+"/"+name+"/workers="+string(rune('0'+w)), r1, rn)
			}
		}
	}
}

// TestParallelDeterminismDiagonal covers the diagonal-covariance (IGMM)
// code paths, which have their own dense and factorized EM loops.
func TestParallelDeterminismDiagonal(t *testing.T) {
	trainers := map[string]plan.Strategy{
		"M-IGMM": plan.Materialized, "S-IGMM": plan.Streaming, "F-IGMM": plan.Factorized,
	}
	db := openDB(t)
	spec := synthBinary(t, db, 1500, 60, 3, 4)
	for name, s := range trainers {
		cfg := Config{K: 3, MaxIter: 4, Tol: 1e-12, Diagonal: true}
		cfg.NumWorkers = 1
		r1, err := Train(db, spec, s, cfg)
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		cfg.NumWorkers = 4
		r4, err := Train(db, spec, s, cfg)
		if err != nil {
			t.Fatalf("%s workers=4: %v", name, err)
		}
		assertBitIdentical(t, name, r1, r4)
	}
}
