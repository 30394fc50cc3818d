package factorml

import (
	"testing"

	"factorml/internal/core"
	"factorml/internal/nn"
)

// costGridShapes are the schema shapes the estimate-vs-measured grid runs
// over: stars of one, two and three dimensions, a depth-3 snowflake, and a
// two-dimension star whose first dimension spans three join blocks (so a
// Block-mode network refills its resident caches three times per epoch).
var costGridShapes = []struct {
	name       string
	cfg        SyntheticConfig
	blockPages int // 0 leaves the join's default, under which every R1 here is one block
}{
	{"star1", SyntheticConfig{NS: 400, NR: []int{40}, DS: 3, DR: []int{5}}, 0},
	{"star2", SyntheticConfig{NS: 400, NR: []int{40, 12}, DS: 2, DR: []int{4, 3}}, 0},
	{"star3", SyntheticConfig{NS: 400, NR: []int{30, 12, 8}, DS: 3, DR: []int{3, 2, 4}}, 0},
	{"snowflake3", SyntheticConfig{NS: 400, NR: []int{48}, DS: 2, DR: []int{3}, Depth: 3}, 0},
	{"star2blocks", SyntheticConfig{NS: 400, NR: []int{120, 10}, DS: 2, DR: []int{20, 3}}, 1},
}

// TestEstimateEqualsMeasuredGrid pins the planner's flop estimate to the
// trainers' measured Stats.Ops, both fields, on every cell of shapes ×
// models × strategies: the two are the same per-unit formulas of
// internal/core multiplied by event counts, predicted from the catalog on
// one side and seen by the run on the other, and on these schemas — no
// dangling key, no early convergence — the counts agree, so the products
// do to the digit.
func TestEstimateEqualsMeasuredGrid(t *testing.T) {
	algos := []Algorithm{Materialized, Streaming, Factorized}
	for _, sh := range costGridShapes {
		t.Run(sh.name, func(t *testing.T) {
			db := openDB(t)
			cfg := sh.cfg
			cfg.Seed, cfg.WithTarget = 7, true
			ds, err := GenerateSynthetic(db, sh.name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds.spec.BlockPages = sh.blockPages
			if pages := ds.spec.Rs[0].NumPages(); sh.blockPages > 0 && pages != 3*int64(sh.blockPages) {
				t.Fatalf("R1 has %d pages, the shape wants three blocks of %d", pages, sh.blockPages)
			}

			for _, diagonal := range []bool{false, true} {
				gcfg := GMMConfig{K: 3, MaxIter: 2, Tol: 1e-300, Diagonal: diagonal, NumWorkers: 1}
				gp, err := PlanGMM(ds, gcfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range algos {
					res, err := TrainGMM(ds, algo, gcfg)
					if err != nil {
						t.Fatal(err)
					}
					if est := gp.Estimate(algo).Ops; est != res.Stats.Ops {
						t.Errorf("gmm diagonal=%v %v: estimate %+v, measured %+v", diagonal, algo, est, res.Stats.Ops)
					}
				}
			}

			noHidden, err := nn.NewNetwork([]int{ds.JoinedWidth(), 1}, nn.Sigmoid, 1)
			if err != nil {
				t.Fatal(err)
			}
			nns := []struct {
				name string
				cfg  NNConfig
			}{
				{"epoch", NNConfig{Hidden: []int{8}}},
				{"block", NNConfig{Hidden: []int{8}, Mode: nn.Block}},
				{"two-hidden", NNConfig{Hidden: []int{6, 4}}},
				{"no-hidden", NNConfig{Init: noHidden}},
			}
			for _, m := range nns {
				ncfg := m.cfg
				ncfg.Epochs, ncfg.LearningRate, ncfg.NumWorkers = 2, 0.01, 1
				np, err := PlanNN(ds, ncfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range algos {
					res, err := TrainNN(ds, algo, ncfg)
					if err != nil {
						t.Fatal(err)
					}
					if est := np.Estimate(algo).Ops; est != res.Stats.Ops {
						t.Errorf("nn %s %v: estimate %+v, measured %+v", m.name, algo, est, res.Stats.Ops)
					}
				}
			}
		})
	}
}

// TestEstimateResidualIsDroppedMatches is the statement that counts, not
// formulas, are what an estimate can get wrong: on a star where some fact
// rows' foreign keys name no dimension tuple, the inner join drops those
// rows, the planner — which sees the fact table's row count — does not,
// and estimate − measured is exactly the dropped rows × the per-match
// (dense: per-row) unit × passes. Fills and flushes are per dimension
// tuple and are not affected.
func TestEstimateResidualIsDroppedMatches(t *testing.T) {
	db := openDB(t)
	const nItems, nOrders, dangling = 10, 120, 17
	buildRetail(t, db, 0, nItems) // the items; the orders are appended here
	orders, err := db.FactTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nOrders; i++ {
		fk := int64(i % nItems)
		if i%7 == 3 {
			fk = int64(nItems + i) // names no item
		}
		if err := orders.Append(int64(i), []int64{fk}, []float64{float64(i%7) + 0.5, float64(i % 24)}, float64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(orders)
	if err != nil {
		t.Fatal(err)
	}
	if got := (nOrders + 3) / 7; got != dangling {
		t.Fatalf("fixture has %d dangling rows, the test expects %d", got, dangling)
	}
	p := core.NewPartition([]int{2, 3})

	const passes = 2
	gcfg := GMMConfig{K: 2, MaxIter: passes, Tol: 1e-300, NumWorkers: 1}
	whole := core.NewPartition([]int{p.D}) // what M and S factorize: nothing
	gu, gw := core.NewGMMUnits(p, gcfg.K, false), core.NewGMMUnits(whole, gcfg.K, false)
	ncfg := NNConfig{Hidden: []int{5}, Epochs: passes, LearningRate: 0.01, NumWorkers: 1}
	nu, nw := core.NewNNUnits(p, []int{p.D, 5, 1}), core.NewNNUnits(whole, []int{p.D, 5, 1})
	gp, err := PlanGMM(ds, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	np, err := PlanNN(ds, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		algo     Algorithm
		gmm, net core.Ops // the unit a dropped row would have been charged
	}{
		{Materialized, gw.Match, nw.Match},
		{Streaming, gw.Match, nw.Match},
		{Factorized, gu.Match, nu.Match},
	} {
		gres, err := TrainGMM(ds, c.algo, gcfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := gp.Estimate(c.algo).Ops, gres.Stats.Ops.Plus(c.gmm.Scale(dangling*passes)); got != want {
			t.Errorf("gmm %v: estimate %+v, want measured + dropped×unit×passes = %+v", c.algo, got, want)
		}
		nres, err := TrainNN(ds, c.algo, ncfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := np.Estimate(c.algo).Ops, nres.Stats.Ops.Plus(c.net.Scale(dangling*passes)); got != want {
			t.Errorf("nn %v: estimate %+v, want measured + dropped×unit×passes = %+v", c.algo, got, want)
		}
	}
}
