package factorml

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"factorml/internal/plan"
)

// This file is the randomized cross-strategy equivalence harness: it
// generates random snowflake schemas — depth 1–3, up to 4 dimension tables
// per level, random column widths including the zero-width edge, random
// cardinalities down to a single row, sub-dimension tables shared by two
// parents, dimension tuples whose sub-reference dangles, and a direct
// dimension with about one fact row per tuple above a wide, heavily shared
// sub-dimension — and asserts that for both model families
//
//   - every strategy is bit-identical across NumWorkers ∈ {1, 2, 4} (the
//     parallel engine's headline guarantee), and
//   - Materialized, Streaming and Factorized agree to within 1e-9 relative
//     (the strategies evaluate the same sums in different floating-point
//     orders — the factorized quadratic form is block-decomposed — so
//     cross-strategy equality is exact-up-to-summation-order, the same
//     contract the hand-written fixtures in factorml_test.go pin), over
//     exactly the fact rows whose every hop resolves.
//
// Every schema's generator seed is printed on failure; rerun a single
// failing schema with FACTORML_EQUIV_SEED=<seed> FACTORML_EQUIV_COUNT=1.

// equivSchemas is how many random schemas the harness sweeps.
const equivSchemas = 50

// maxEquivDims caps the total number of dimension tables per schema so a
// depth-3 fanout stays affordable.
const maxEquivDims = 8

// rdim is one table of a random dimension hierarchy. A table shared by two
// parents is one rdim in both subs lists.
type rdim struct {
	tbl   *DimensionTable
	level int
	n     int // cardinality, the dangling tuple included
	width int // feature columns; -1 lets create pick 0–2
	subs  []*rdim
	// alive[i] reports whether every hop below tuple i resolves.
	alive []bool
	keyOf func(i int64) int64 // tuple i's primary key; nil: i
}

func (d *rdim) key(i int64) int64 {
	if d.keyOf == nil {
		return i
	}
	return d.keyOf(i)
}

// buildRandomSnowflake creates a random schema in db and returns the fact
// table, the number of fact rows the join keeps, and a shape description
// for failure messages. Without allowDangling no sub-reference dangles, so the
// join keeps every fact row (the streaming tier rejects a dangling chain
// where the trainers' inner join drops its rows). With sparseKeys the first
// direct dimension stores its tuple i under key 10·i − 7, a key space the
// resident indexes serve through their key maps.
func buildRandomSnowflake(t *testing.T, db *DB, rng *rand.Rand, allowDangling, sparseKeys bool) (*FactTable, int, string) {
	t.Helper()
	depth := 1 + rng.Intn(3)
	nRows := 40 + rng.Intn(121)
	total := 0
	shape := fmt.Sprintf("depth=%d dims=[", depth)

	// Decide the tree, then create tables bottom-up (a parent needs its
	// sub-dimension handles at creation time).
	var leaves []*rdim
	var build func(level int) *rdim
	nodeID := 0
	build = func(level int) *rdim {
		total++
		d := &rdim{level: level, width: -1, n: 2 + rng.Intn(9)}
		if level > 1 && rng.Intn(4) == 0 {
			d.n = 1 // single-row sub-dimension
		}
		if level < depth {
			nsubs := 1 + rng.Intn(4)
		subs:
			for c := 0; c < nsubs && total < maxEquivDims; c++ {
				// Now and then reference a leaf another parent already
				// holds instead of a table of our own.
				if rng.Intn(4) == 0 {
					for _, l := range leaves {
						if l.level == level+1 && !slices.Contains(d.subs, l) {
							d.subs = append(d.subs, l)
							continue subs
						}
					}
				}
				d.subs = append(d.subs, build(level+1))
			}
		}
		if len(d.subs) == 0 {
			leaves = append(leaves, d)
		}
		return d
	}
	var create func(d *rdim) *DimensionTable
	create = func(d *rdim) *DimensionTable {
		if d.tbl != nil {
			return d.tbl // shared: created under its first parent
		}
		var subs []*DimensionTable
		for _, s := range d.subs {
			subs = append(subs, create(s))
		}
		if d.width < 0 {
			d.width = rng.Intn(3) // 0, 1 or 2 features — zero-width included
		}
		var cols []string
		for i := 0; i < d.width; i++ {
			cols = append(cols, fmt.Sprintf("x%d", i))
		}
		name := fmt.Sprintf("d%d", nodeID)
		nodeID++
		tbl, err := db.CreateDimensionTable(name, cols, subs...)
		if err != nil {
			t.Fatal(err)
		}
		// One table with sub-dimensions in three gets an extra tuple whose
		// first reference names no tuple.
		dangling := len(subs) > 0 && rng.Intn(3) == 0 && allowDangling
		if dangling {
			d.n++
		}
		shape += fmt.Sprintf(" %s(n=%d,w=%d,subs=%d,dangling=%v)", name, d.n, d.width, len(subs), dangling)
		feats := make([]float64, d.width)
		fks := make([]int64, len(subs))
		d.alive = make([]bool, d.n)
		for i := 0; i < d.n; i++ {
			for j := range feats {
				feats[j] = rng.NormFloat64()
			}
			d.alive[i] = true
			for j, s := range d.subs {
				// Tuple 0 references tuple 0 all the way down, so one
				// tuple per table always survives.
				fks[j] = 0
				if i > 0 {
					fks[j] = int64(rng.Intn(s.n))
				}
				d.alive[i] = d.alive[i] && s.alive[fks[j]]
			}
			if dangling && i == d.n-1 {
				fks[0] = int64(d.subs[0].n + 5)
				d.alive[i] = false
			}
			var err error
			if len(subs) == 0 {
				err = tbl.Append(d.key(int64(i)), feats)
			} else {
				err = tbl.AppendRefs(d.key(int64(i)), fks, feats)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		d.tbl = tbl
		return tbl
	}

	nDirect := 1 + rng.Intn(2)
	var roots []*rdim
	var direct []*DimensionTable
	for i := 0; i < nDirect && total < maxEquivDims; i++ {
		roots = append(roots, build(1))
	}
	// One schema in five makes the first direct dimension as large as the
	// fact table, each tuple referenced by about one fact row, above a
	// wide sub-dimension of a few tuples — the shape where a dimension
	// tuple's subtree is recomputed almost once per fact row.
	sparse := rng.Intn(5) == 0
	if sparse {
		roots[0].n = nRows
		roots[0].subs = append(roots[0].subs, &rdim{level: 2, width: 6, n: 3})
		total++
	}
	if sparseKeys {
		roots[0].keyOf = func(i int64) int64 { return 10*i - 7 }
	}
	for _, r := range roots {
		direct = append(direct, create(r))
	}
	shape += " ]"

	dS := 1 + rng.Intn(3)
	var factCols []string
	for i := 0; i < dS; i++ {
		factCols = append(factCols, fmt.Sprintf("f%d", i))
	}
	fact, err := db.CreateFactTable("fact", factCols, true, direct...)
	if err != nil {
		t.Fatal(err)
	}
	shape += fmt.Sprintf(" rows=%d dS=%d sparse=%v sparseKeys=%v", nRows, dS, sparse, sparseKeys)
	feats := make([]float64, dS)
	fks := make([]int64, len(roots))
	keys := make([]int64, len(roots))
	kept := 0
	for i := 0; i < nRows; i++ {
		y := 0.0
		for j := range feats {
			feats[j] = rng.NormFloat64()
			y += feats[j]
		}
		alive := true
		for j, r := range roots {
			switch {
			case i < 8:
				fks[j] = 0 // a few rows always survive (see create)
			case sparse && j == 0:
				fks[j] = int64(i)
			default:
				fks[j] = int64(rng.Intn(r.n))
			}
			alive = alive && r.alive[fks[j]]
			keys[j] = r.key(fks[j])
		}
		if alive {
			kept++
		}
		if err := fact.Append(int64(i), keys, feats, 0.3*y+0.1*rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	return fact, kept, shape
}

// equivEnvInt reads an integer override from the environment.
func equivEnvInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func relDiffTooBig(d float64) bool { return d > 1e-9 }

// TestRandomizedCrossStrategyEquivalence is the harness described in the
// file comment.
func TestRandomizedCrossStrategyEquivalence(t *testing.T) {
	masterSeed := equivEnvInt("FACTORML_EQUIV_SEED", 20260730)
	count := int(equivEnvInt("FACTORML_EQUIV_COUNT", equivSchemas))
	if testing.Short() {
		count = 8
	}
	algos := []Algorithm{Materialized, Streaming, Factorized}
	workerSweep := []int{1, 2, 4}

	for i := 0; i < count; i++ {
		seed := masterSeed + int64(i)
		rng := rand.New(rand.NewSource(seed))
		db := openDB(t)
		fact, kept, shape := buildRandomSnowflake(t, db, rng, true, false)
		ds, err := db.Dataset(fact)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, shape, err)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("schema seed %d (%s): %s", seed, shape, fmt.Sprintf(format, args...))
		}
		joined := 0
		if err := ds.Stream(func(int64, []float64, float64) error { joined++; return nil }); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, shape, err)
		}
		if joined != kept {
			fail("the join keeps %d fact rows, want the %d whose every hop resolves", joined, kept)
		}

		// --- GMM: Tol=0 disables early convergence so every strategy runs
		// the same fixed number of EM iterations.
		gmms := make(map[Algorithm][]*GMMModel)
		for _, algo := range algos {
			for _, w := range workerSweep {
				res, err := TrainGMM(ds, algo, GMMConfig{K: 2, MaxIter: 3, Tol: 1e-300, Seed: seed, NumWorkers: w})
				if err != nil {
					t.Fatalf("seed %d (%s): %v-GMM workers=%d: %v", seed, shape, algo, w, err)
				}
				gmms[algo] = append(gmms[algo], res.Model)
			}
			for _, m := range gmms[algo][1:] {
				if d := gmms[algo][0].MaxParamDiff(m); d != 0 {
					fail("%v-GMM differs across worker counts by %g, want bit-identical", algo, d)
				}
			}
		}
		for _, algo := range algos[1:] {
			if d := gmms[Materialized][0].MaxParamDiff(gmms[algo][0]); relDiffTooBig(d) {
				fail("M-GMM vs %v-GMM differ by %g", algo, d)
			}
		}

		// --- NN.
		nns := make(map[Algorithm][]*NNNetwork)
		for _, algo := range algos {
			for _, w := range workerSweep {
				res, err := TrainNN(ds, algo, NNConfig{Hidden: []int{3}, Epochs: 2, LearningRate: 0.05, Seed: seed, NumWorkers: w})
				if err != nil {
					t.Fatalf("seed %d (%s): %v-NN workers=%d: %v", seed, shape, algo, w, err)
				}
				nns[algo] = append(nns[algo], res.Net)
			}
			for _, m := range nns[algo][1:] {
				if d := nns[algo][0].MaxParamDiff(m); d != 0 {
					fail("%v-NN differs across worker counts by %g, want bit-identical", algo, d)
				}
			}
		}
		for _, algo := range algos[1:] {
			if d := nns[Materialized][0].MaxParamDiff(nns[algo][0]); relDiffTooBig(d) {
				fail("M-NN vs %v-NN differ by %g", algo, d)
			}
		}
	}
}

// TestSnowflakeDepth3PinnedEquivalence is the deterministic anchor of the
// harness: one fixed depth-3 schema (fact → items → categories →
// suppliers, with a second brands branch under items), every strategy,
// workers ∈ {1, 2, 4}. Factorized training over the snowflake matches
// Materialized/Streaming over the flattened join, bit-identical across
// every worker count within a strategy.
func TestSnowflakeDepth3PinnedEquivalence(t *testing.T) {
	db := openDB(t)
	rng := rand.New(rand.NewSource(99))

	suppliers, err := db.CreateDimensionTable("suppliers", []string{"rating"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := suppliers.Append(int64(i), []float64{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	categories, err := db.CreateDimensionTable("categories", []string{"margin", "rate"}, suppliers)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := categories.AppendRefs(int64(i), []int64{int64(rng.Intn(5))}, []float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	brands, err := db.CreateDimensionTable("brands", []string{"prestige"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := brands.Append(int64(i), []float64{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	items, err := db.CreateDimensionTable("items", []string{"price", "weight"}, categories, brands)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		err := items.AppendRefs(int64(i), []int64{int64(rng.Intn(9)), int64(rng.Intn(4))},
			[]float64{rng.NormFloat64(), rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
	}
	fact, err := db.CreateFactTable("orders", []string{"amount", "hour"}, true, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		a := rng.NormFloat64()
		if err := fact.Append(int64(i), []int64{int64(rng.Intn(40))}, []float64{a, rng.NormFloat64()}, 0.5*a); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(fact)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 2 + 2 + 1 + 1; ds.JoinedWidth() != want {
		t.Fatalf("JoinedWidth = %d, want %d", ds.JoinedWidth(), want)
	}

	algos := []Algorithm{Materialized, Streaming, Factorized}
	var gref *GMMModel
	var nref *NNNetwork
	for _, algo := range algos {
		var gw []*GMMModel
		var nw []*NNNetwork
		for _, w := range []int{1, 2, 4} {
			gres, err := TrainGMM(ds, algo, GMMConfig{K: 3, MaxIter: 4, Tol: 1e-300, Seed: 5, NumWorkers: w})
			if err != nil {
				t.Fatalf("%v-GMM workers=%d: %v", algo, w, err)
			}
			gw = append(gw, gres.Model)
			nres, err := TrainNN(ds, algo, NNConfig{Hidden: []int{6}, Epochs: 3, LearningRate: 0.05, Seed: 5, NumWorkers: w})
			if err != nil {
				t.Fatalf("%v-NN workers=%d: %v", algo, w, err)
			}
			nw = append(nw, nres.Net)
		}
		for i := 1; i < len(gw); i++ {
			if d := gw[0].MaxParamDiff(gw[i]); d != 0 {
				t.Errorf("%v-GMM: workers sweep position %d differs by %g, want bit-identical", algo, i, d)
			}
			if d := nw[0].MaxParamDiff(nw[i]); d != 0 {
				t.Errorf("%v-NN: workers sweep position %d differs by %g, want bit-identical", algo, i, d)
			}
		}
		if gref == nil {
			gref, nref = gw[0], nw[0]
			continue
		}
		if d := gref.MaxParamDiff(gw[0]); relDiffTooBig(d) {
			t.Errorf("GMM: %v differs from Materialized by %g", algo, d)
		}
		if d := nref.MaxParamDiff(nw[0]); relDiffTooBig(d) {
			t.Errorf("NN: %v differs from Materialized by %g", algo, d)
		}
	}

	// The planner prices the partition the factorized trainers compute
	// over — the fact part plus one part per direct dimension, here items
	// with its whole subtree — so its estimate is the measured count, not
	// an approximation of it.
	for _, diagonal := range []bool{false, true} {
		gcfg := GMMConfig{K: 3, MaxIter: 4, Tol: 1e-300, Seed: 5, NumWorkers: 1, Diagonal: diagonal}
		gp, err := PlanGMM(ds, gcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{Materialized, Factorized} {
			res, err := TrainGMM(ds, algo, gcfg)
			if err != nil {
				t.Fatal(err)
			}
			if est := gp.Estimate(plan.Strategy(algo)).Ops; est != res.Stats.Ops {
				t.Errorf("%v-GMM (diagonal=%v): planner estimates %+v, training measured %+v", algo, diagonal, est, res.Stats.Ops)
			}
			// One pass per EM iteration plus the initialization scan.
			if est, got := gp.Estimate(plan.Strategy(algo)).Pages, res.Stats.IO.LogicalReads+res.Stats.IO.PageWrites; est != got {
				t.Errorf("%v-GMM (diagonal=%v): planner estimates %d page accesses, training made %d", algo, diagonal, est, got)
			}
		}
	}
	ncfg := NNConfig{Hidden: []int{6}, Epochs: 3, LearningRate: 0.05, Seed: 5, NumWorkers: 1}
	np, err := PlanNN(ds, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Materialized, Factorized} {
		res, err := TrainNN(ds, algo, ncfg)
		if err != nil {
			t.Fatal(err)
		}
		if est := np.Estimate(plan.Strategy(algo)).Ops; est != res.Stats.Ops {
			t.Errorf("%v-NN: planner estimates %+v, training measured %+v", algo, est, res.Stats.Ops)
		}
	}
}

// TestStarNNBytesPinned pins the trained network's serialized bytes on one
// seeded two-dimension star for every strategy, for any worker count. The
// hashes were re-recorded when the sigmoid moved to linalg.ExpInto and
// F-NN's input-layer gradient was factorized per dimension tuple (one
// outer product per touched tuple instead of one per match), and M's and
// S's when they became the one driver with no dimension factorized (its
// chunks cut at every block end and, on S, every 512 fact tuples scanned);
// a kernel change that adds the same products in the same order must not
// move them.
// amd64 only: other ports may fuse the multiply-adds of the kernels other
// than exp and log, which rounds differently from the machine that
// recorded the hashes.
func TestStarNNBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bytes were recorded on amd64 (no fused multiply-add)")
	}
	db := openDB(t)
	ds, err := GenerateSynthetic(db, "pin", SyntheticConfig{
		NS: 1300, NR: []int{37, 11}, DS: 3, DR: []int{5, 2}, Seed: 17, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[Algorithm]string{
		Materialized: "944da734eeaed98dc2c2231fee458e5e1729c423fe5374eff2aa67049770ebe2",
		Streaming:    "944da734eeaed98dc2c2231fee458e5e1729c423fe5374eff2aa67049770ebe2",
		Factorized:   "0a3bb5b376df48e7942b6b58a2cb95a40f70881486c4231f3f0e5fc855e5260d",
	}
	for _, algo := range []Algorithm{Materialized, Streaming, Factorized} {
		for _, workers := range []int{1, 3} {
			res, err := TrainNN(ds, algo, NNConfig{Hidden: []int{7, 4}, Epochs: 3, LearningRate: 0.05, Seed: 9, NumWorkers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", algo, workers, err)
			}
			var buf bytes.Buffer
			if err := res.Net.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[algo] {
				t.Errorf("%v-NN workers=%d: network bytes hash to %s, want %s", algo, workers, got, want[algo])
			}
		}
	}
}
