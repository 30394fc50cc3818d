package factorml

import (
	"fmt"
	"math/rand"
	"testing"

	"factorml/internal/plan"
)

// This file pins the Auto strategy's contract: the planner's choice always
// matches the cheapest estimate, and training with Auto is bit-identical
// to invoking the chosen strategy directly — for every NumWorkers value.

// autoSchemas is how many random schemas the Auto harness sweeps (the
// schemas come from the same generator as the cross-strategy equivalence
// harness, so zero-width dimensions and depth-3 hierarchies are covered).
const autoSchemas = 12

func TestAutoMatchesCheapestEstimateAndTrainsBitIdentically(t *testing.T) {
	masterSeed := equivEnvInt("FACTORML_EQUIV_SEED", 20260730)
	count := autoSchemas
	if testing.Short() {
		count = 4
	}
	workerSweep := []int{1, 4}

	for i := 0; i < count; i++ {
		seed := masterSeed + int64(1000+i)
		rng := rand.New(rand.NewSource(seed))
		db := openDB(t)
		fact, _, shape := buildRandomSnowflake(t, db, rng, true)
		ds, err := db.Dataset(fact)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, shape, err)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("schema seed %d (%s): %s", seed, shape, fmt.Sprintf(format, args...))
		}

		// --- GMM.
		gcfg := GMMConfig{K: 2, MaxIter: 3, Tol: 1e-300, Seed: seed}
		gplan, err := PlanGMM(ds, gcfg)
		if err != nil {
			t.Fatalf("seed %d (%s): PlanGMM: %v", seed, shape, err)
		}
		if got, want := gplan.Chosen, gplan.Estimates[0].Strategy; got != want {
			fail("GMM plan chose %v but cheapest estimate is %v", got, want)
		}
		for _, w := range workerSweep {
			cfg := gcfg
			cfg.NumWorkers = w
			auto, err := TrainGMM(ds, Auto, cfg)
			if err != nil {
				t.Fatalf("seed %d (%s): Auto-GMM workers=%d: %v", seed, shape, w, err)
			}
			if auto.Stats.Plan == nil {
				fail("Auto-GMM result carries no plan")
			} else if auto.Stats.Plan.Chosen != gplan.Chosen {
				fail("Auto-GMM trained with %v, plan says %v", auto.Stats.Plan.Chosen, gplan.Chosen)
			}
			direct, err := TrainGMM(ds, Algorithm(gplan.Chosen), cfg)
			if err != nil {
				t.Fatalf("seed %d (%s): %v-GMM workers=%d: %v", seed, shape, gplan.Chosen, w, err)
			}
			if direct.Stats.Plan != nil {
				fail("directly-invoked strategy reports a plan")
			}
			if d := auto.Model.MaxParamDiff(direct.Model); d != 0 {
				fail("Auto-GMM differs from direct %v by %g at workers=%d, want bit-identical", gplan.Chosen, d, w)
			}
		}

		// --- NN.
		ncfg := NNConfig{Hidden: []int{3}, Epochs: 2, LearningRate: 0.05, Seed: seed}
		nplan, err := PlanNN(ds, ncfg)
		if err != nil {
			t.Fatalf("seed %d (%s): PlanNN: %v", seed, shape, err)
		}
		if got, want := nplan.Chosen, nplan.Estimates[0].Strategy; got != want {
			fail("NN plan chose %v but cheapest estimate is %v", got, want)
		}
		for _, w := range workerSweep {
			cfg := ncfg
			cfg.NumWorkers = w
			auto, err := TrainNN(ds, Auto, cfg)
			if err != nil {
				t.Fatalf("seed %d (%s): Auto-NN workers=%d: %v", seed, shape, w, err)
			}
			if auto.Stats.Plan == nil {
				fail("Auto-NN result carries no plan")
			}
			direct, err := TrainNN(ds, Algorithm(nplan.Chosen), cfg)
			if err != nil {
				t.Fatalf("seed %d (%s): %v-NN workers=%d: %v", seed, shape, nplan.Chosen, w, err)
			}
			if d := auto.Net.MaxParamDiff(direct.Net); d != 0 {
				fail("Auto-NN differs from direct %v by %g at workers=%d, want bit-identical", nplan.Chosen, d, w)
			}
		}
	}
}

// TestAutoAlgorithmString pins the facade naming and the numeric
// correspondence between plan strategies and Algorithm values.
func TestAutoAlgorithmString(t *testing.T) {
	if Auto.String() != "auto" {
		t.Errorf("Auto.String() = %q", Auto.String())
	}
	for _, a := range []Algorithm{Materialized, Streaming, Factorized} {
		if a.String() == "auto" {
			t.Errorf("%d stringifies as auto", int(a))
		}
	}
}

// TestPlanRejectsBadConfig: Auto surfaces configuration errors before any
// training starts.
func TestPlanRejectsBadConfig(t *testing.T) {
	db := openDB(t)
	rng := rand.New(rand.NewSource(7))
	fact, _, _ := buildRandomSnowflake(t, db, rng, true)
	ds, err := db.Dataset(fact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainGMM(ds, Auto, GMMConfig{K: 0}); err == nil {
		t.Error("Auto accepted K=0")
	}
	if _, err := PlanGMM(ds, GMMConfig{K: -1}); err == nil {
		t.Error("PlanGMM accepted K=-1")
	}
}

// TestPlannerPicksMeasuredCheapest trains every strategy on three schema
// shapes chosen to have three different winners and scores each run by what
// it measured — core.Ops plus DefaultFlopsPerPage per page access, the
// currency the planner estimates in. On at least two of the three the
// planner's pick must be within 5% of the measured-cheapest (M and S do
// identical math, so an exact argmin would be a coin flip between near-ties).
func TestPlannerPicksMeasuredCheapest(t *testing.T) {
	shapes := []struct {
		name                              string
		ns, nr, ds, dr, iters, blockPages int
	}{
		// High fan-out, wide dimension: per-tuple reuse dominates.
		{name: "wide-dim", ns: 3000, nr: 50, ds: 2, dr: 24, iters: 3},
		// Zero-width dimension, single block, one iteration: nothing to
		// factorize and nothing to amortize a materialization over.
		{name: "zero-width-dim", ns: 4000, nr: 80, ds: 3, dr: 0, iters: 1},
		// Narrow dimension forced multi-block with many EM passes: every
		// streamed pass rescans the fact table once per block, while a
		// narrow T amortizes.
		{name: "narrow-dim-multiblock", ns: 4000, nr: 2000, ds: 2, dr: 1, iters: 6, blockPages: 1},
	}
	hits := 0
	for _, sh := range shapes {
		ds, err := GenerateSynthetic(openDB(t), "plan", SyntheticConfig{
			NS: sh.ns, NR: []int{sh.nr}, DS: sh.ds, DR: []int{sh.dr}, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		ds.spec.BlockPages = sh.blockPages // the one place a block size is set
		cfg := GMMConfig{K: 3, MaxIter: sh.iters, Tol: 1e-300, Seed: 5, NumWorkers: 1}
		pl, err := PlanGMM(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scores := map[plan.Strategy]float64{}
		cheapest := plan.Materialized
		for _, strat := range []plan.Strategy{plan.Materialized, plan.Streaming, plan.Factorized} {
			res, err := TrainGMM(ds, Algorithm(strat), cfg)
			if err != nil {
				t.Fatalf("shape %s, %v: %v", sh.name, strat, err)
			}
			pages := res.Stats.IO.LogicalReads + res.Stats.IO.PageWrites
			// The planner prices the block size the join runs with: where
			// R1 spans several blocks, every access path — the materialized
			// one included — makes exactly the page accesses estimated.
			if est := pl.Estimate(strat).Pages; sh.blockPages != 0 && est != pages {
				t.Errorf("shape %s, %v: planner priced %d pages, the run made %d", sh.name, strat, est, pages)
			}
			scores[strat] = float64(res.Stats.Ops.Total()) + plan.DefaultFlopsPerPage*float64(pages)
			if scores[strat] < scores[cheapest] {
				cheapest = strat
			}
		}
		hit := scores[pl.Chosen] <= 1.05*scores[cheapest]
		if hit {
			hits++
		}
		t.Logf("shape %s: chose %v, measured cheapest %v (hit=%v, scores %v)", sh.name, pl.Chosen, cheapest, hit, scores)
	}
	if hits < 2 {
		t.Fatalf("planner matched the measured-cheapest strategy on %d/3 shapes, want >= 2", hits)
	}
}
