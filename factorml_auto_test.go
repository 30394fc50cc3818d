package factorml

import (
	"fmt"
	"math/rand"
	"testing"
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
