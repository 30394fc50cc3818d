package serve_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/nn"
	"factorml/internal/serve"
	"factorml/internal/storage"
)

// testSnowflake generates a snowflake of the given depth: 600 fact tuples
// of width 3 over two direct dimensions of 25 and 10 tuples (width 2),
// each referencing one sub-dimension per level (synth_R1 → synth_R1_1 →
// synth_R1_1_1 …, a quarter of the parent's tuples, at least two).
func testSnowflake(t testing.TB, dir string, depth int) (*storage.Database, *join.Spec) {
	t.Helper()
	db, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := data.Generate(db, "synth", data.SynthConfig{
		NS: 600, NR: []int{25, 10}, DS: 3, DR: []int{2, 2}, Depth: depth, Seed: 5, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, spec
}

// mirror is a test-side copy of a snowflake's dimension tuples, by table
// and key, kept beside every ApplyDimUpdate: dense reference rows are
// assembled from it by following the plan's edges by hand.
type mirror struct {
	pl   *join.DimPlan
	tabs map[string]map[int64]storage.Tuple
}

func newMirror(t testing.TB, spec *join.Spec) *mirror {
	t.Helper()
	m := &mirror{pl: spec.Plan(), tabs: map[string]map[int64]storage.Tuple{}}
	for _, r := range spec.Rs {
		name := r.Schema().Name
		if m.tabs[name] != nil {
			continue
		}
		m.tabs[name] = map[int64]storage.Tuple{}
		sc := r.NewScanner()
		for sc.Next() {
			tp := sc.Tuple()
			m.tabs[name][tp.PrimaryKey()] = storage.Tuple{
				Keys: append([]int64{}, tp.Keys...), Features: append([]float64{}, tp.Features...),
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// table returns the name of plan node i's table.
func (m *mirror) table(i int) string { return m.pl.Tables[i].Schema().Name }

// keys returns the key every plan node reaches from the direct foreign
// keys fks, false when a hop dangles.
func (m *mirror) keys(fks []int64) ([]int64, bool) {
	keys := make([]int64, len(m.pl.Tables))
	for i, p := range m.pl.Parent {
		if p == -1 {
			keys[i] = fks[m.pl.Ref[i]]
		} else {
			keys[i] = m.tabs[m.table(p)][keys[p]].Keys[1+m.pl.Ref[i]]
		}
		if _, ok := m.tabs[m.table(i)][keys[i]]; !ok {
			return nil, false
		}
	}
	return keys, true
}

// joined assembles the dense row of a request: the fact features, then
// every node's tuple in preorder.
func (m *mirror) joined(row serve.Row) ([]float64, bool) {
	keys, ok := m.keys(row.FKs)
	if !ok {
		return nil, false
	}
	x := append([]float64{}, row.Fact...)
	for i, k := range keys {
		x = append(x, m.tabs[m.table(i)][k].Features...)
	}
	return x, true
}

// update applies a dimension update to the engine and the mirror.
func (m *mirror) update(t testing.TB, eng *serve.Engine, table string, rid int64, subs []int64, feats []float64) {
	t.Helper()
	if _, err := eng.ApplyDimUpdate(table, rid, subs, feats); err != nil {
		t.Fatal(err)
	}
	m.tabs[table][rid] = storage.Tuple{
		Keys: append([]int64{rid}, subs...), Features: append([]float64{}, feats...),
	}
}

// checkDense predicts rows under both models and requires every result
// within 1e-9 of the dense model over the mirror's joined row.
func checkDense(t testing.TB, eng *serve.Engine, m *mirror, net *nn.Network, gm *gmm.Model, rows []serve.Row) {
	t.Helper()
	nout, _, err := eng.PredictCtx(context.Background(), "m-nn", rows)
	if err != nil {
		t.Fatal(err)
	}
	gout, _, err := eng.PredictCtx(context.Background(), "m-gmm", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		x, ok := m.joined(row)
		if !ok || nout[i].Err != "" || gout[i].Err != "" {
			t.Fatalf("row %d (fks %v): reachable %v, errors %q / %q", i, row.FKs, ok, nout[i].Err, gout[i].Err)
		}
		if want := net.Predict(x); math.Abs(nout[i].Output-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("row %d (fks %v): NN served %v, dense %v", i, row.FKs, nout[i].Output, want)
		}
		if want := gm.LogProb(x); math.Abs(gout[i].LogProb-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("row %d (fks %v): GMM served %v, dense %v", i, row.FKs, gout[i].LogProb, want)
		}
		if want := gm.Predict(x); gout[i].Cluster != want {
			t.Fatalf("row %d (fks %v): GMM served cluster %d, dense %d", i, row.FKs, gout[i].Cluster, want)
		}
	}
}

// snowflakeEngine trains an NN and a full GMM over a snowflake of the given
// depth and serves them as "m-nn" and "m-gmm".
func snowflakeEngine(t testing.TB, depth int, cfg serve.EngineConfig) (*join.Spec, *serve.Engine, *mirror, *nn.Network, *gmm.Model) {
	t.Helper()
	db, spec := testSnowflake(t, t.TempDir(), depth)
	t.Cleanup(func() { db.Close() })
	net, gm := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, cfg)
	if err := reg.SaveNN("m-nn", net); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveGMM("m-gmm", gm); err != nil {
		t.Fatal(err)
	}
	return spec, eng, newMirror(t, spec), net, gm
}

// snowRows scans up to limit fact tuples (0 = all) into request rows.
func snowRows(t testing.TB, spec *join.Spec, limit int) []serve.Row {
	t.Helper()
	var rows []serve.Row
	sc := spec.S.NewScanner()
	for sc.Next() && (limit == 0 || len(rows) < limit) {
		tp := sc.Tuple()
		rows = append(rows, serve.Row{Fact: append([]float64{}, tp.Features...), FKs: append([]int64{}, tp.Keys[1:]...)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// directRows is one request row per tuple of direct dimension 0, every
// row on tuple 0 of direct dimension 1.
func directRows(m *mirror) []serve.Row {
	var rows []serve.Row
	for k := int64(0); k < int64(len(m.tabs["synth_R1"])); k++ {
		rows = append(rows, serve.Row{Fact: []float64{0.25, -0.5, float64(k) / 10}, FKs: []int64{k, 0}})
	}
	return rows
}

// TestSnowflakeEngineCachesPerDirectTuple serves depth-2 and depth-3
// snowflakes: every prediction matches the dense model, and the engine
// holds one cache entry per distinct direct dimension tuple a batch
// reaches — none for the tuples below them.
func TestSnowflakeEngineCachesPerDirectTuple(t *testing.T) {
	for _, depth := range []int{2, 3} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			spec, eng, m, net, gm := snowflakeEngine(t, depth, serve.EngineConfig{NumWorkers: 2})
			rows := snowRows(t, spec, 0)
			checkDense(t, eng, m, net, gm, rows)
			distinct := map[[2]int64]bool{}
			for _, r := range rows {
				distinct[[2]int64{0, r.FKs[0]}] = true
				distinct[[2]int64{1, r.FKs[1]}] = true
			}
			if got, want := eng.Stats().DimCacheEntries, 2*len(distinct); got != want {
				t.Fatalf("%d live cache entries over two models, want %d (one per direct tuple)", got, want)
			}
		})
	}
}

// TestSnowflakeRepointEqualVersion repoints tuples to sub-tuples whose
// version equals the old one's — a direct tuple through its foreign key,
// and a level-2 tuple, whose cached values the engine does not drop — and
// requires the next prediction to follow the new path.
func TestSnowflakeRepointEqualVersion(t *testing.T) {
	_, eng, m, net, gm := snowflakeEngine(t, 3, serve.EngineConfig{NumWorkers: 1})
	rows := directRows(m)
	checkDense(t, eng, m, net, gm, rows) // warm
	for _, table := range []string{"synth_R1", "synth_R1_1"} {
		tp := m.tabs[table][1]
		old := tp.Keys[1]
		repointed := (old + 1) % int64(len(m.tabs[table+"_1"])) // never updated: version 0, as old's
		before, _, err := eng.PredictCtx(context.Background(), "m-nn", rows)
		if err != nil {
			t.Fatal(err)
		}
		m.update(t, eng, table, 1, []int64{repointed}, tp.Features)
		checkDense(t, eng, m, net, gm, rows)
		after, _, err := eng.PredictCtx(context.Background(), "m-nn", rows)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i := range after {
			if after[i].Output != before[i].Output {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("repointing %s tuple 1 from %d to %d moved no prediction; the test reaches nothing", table, old, repointed)
		}
	}
}

// TestSnowflakeSubtreeUpdateMissesExactly updates one level-2 and then one
// level-3 tuple: on the next batch, which probes every direct tuple once,
// exactly the direct tuples whose subtree reaches the updated tuple miss,
// every other probe hits, and every prediction matches the dense model.
func TestSnowflakeSubtreeUpdateMissesExactly(t *testing.T) {
	_, eng, m, net, gm := snowflakeEngine(t, 3, serve.EngineConfig{NumWorkers: 1})
	rows := directRows(m)
	checkDense(t, eng, m, net, gm, rows) // warm
	for level, table := range []string{"synth_R1_1", "synth_R1_1_1"} {
		const rid = 0
		reaching := 0
		for _, r := range rows {
			if keys, _ := m.keys(r.FKs); keys[1+level] == rid {
				reaching++
			}
		}
		if reaching == 0 || reaching == len(rows) {
			t.Fatalf("%s tuple %d is reached by %d of %d direct tuples; the test needs some of each", table, rid, reaching, len(rows))
		}
		tp := m.tabs[table][rid]
		feats := append([]float64{}, tp.Features...)
		feats[0] += 3
		m.update(t, eng, table, rid, tp.Keys[1:], feats)
		for _, name := range []string{"m-nn", "m-gmm"} {
			before := eng.Stats()
			if _, _, err := eng.PredictCtx(context.Background(), name, rows); err != nil {
				t.Fatal(err)
			}
			after := eng.Stats()
			misses, hits := after.DimCacheMisses-before.DimCacheMisses, after.DimCacheHits-before.DimCacheHits
			if misses != uint64(reaching) || hits != uint64(2*len(rows)-reaching) {
				t.Fatalf("%s after updating %s tuple %d: %d misses and %d hits, want %d and %d",
					name, table, rid, misses, hits, reaching, 2*len(rows)-reaching)
			}
		}
		checkDense(t, eng, m, net, gm, rows)
	}
}

// TestSnowflakeConcurrentRepoints runs predictions beside a writer that
// repoints direct tuples and updates and repoints level-2 tuples, through
// small evicting caches and through caches that keep every entry. Run
// under -race it pins the walk's and the caches' locking; once the writer
// stops, every prediction must match the dense model over the final
// tuples.
func TestSnowflakeConcurrentRepoints(t *testing.T) {
	for _, entries := range []int{8, 0} {
		t.Run(fmt.Sprintf("entries%d", entries), func(t *testing.T) {
			testSnowflakeConcurrentRepoints(t, entries)
		})
	}
}

func testSnowflakeConcurrentRepoints(t *testing.T, entries int) {
	spec, eng, m, net, gm := snowflakeEngine(t, 3, serve.EngineConfig{NumWorkers: 2, CacheEntries: entries})
	rows := snowRows(t, spec, 200)
	n1, n2, n3 := int64(len(m.tabs["synth_R1"])), int64(len(m.tabs["synth_R1_1"])), int64(len(m.tabs["synth_R1_1_1"]))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the one writer: the mirror is its own until wg.Wait
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 300; i++ {
			if i%2 == 0 {
				rid := rng.Int63n(n1)
				m.update(t, eng, "synth_R1", rid, []int64{rng.Int63n(n2)}, m.tabs["synth_R1"][rid].Features)
			} else {
				rid := rng.Int63n(n2)
				m.update(t, eng, "synth_R1_1", rid, []int64{rng.Int63n(n3)}, []float64{rng.NormFloat64(), rng.NormFloat64()})
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, name := range []string{"m-nn", "m-gmm"} {
					out, _, err := eng.PredictCtx(context.Background(), name, rows)
					if err != nil {
						t.Error(err)
						return
					}
					for r := range out {
						if out[r].Err != "" {
							t.Errorf("goroutine %d: row %d: %s", g, r, out[r].Err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkDense(t, eng, m, net, gm, rows)
}

// TestSnowflakePredictZeroAlloc pins a warm snowflake engine's hits at
// zero allocations: the subtree walk and the version-vector compare run on
// scratch, for an NN and for a full GMM over two direct dimensions (whose
// hits copy the subtree's features to form PD).
func TestSnowflakePredictZeroAlloc(t *testing.T) {
	if serve.RaceEnabled {
		t.Skip("the race runtime allocates inside sync.Pool; the pin runs in the non-race suite")
	}
	spec, eng, _, _, _ := snowflakeEngine(t, 3, serve.EngineConfig{NumWorkers: 1})
	rows := snowRows(t, spec, 64)
	out := make([]serve.Prediction, len(rows))
	for _, name := range []string{"m-nn", "m-gmm"} {
		for i := 0; i < 3; i++ {
			if _, err := eng.PredictInto(name, rows, out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := eng.PredictInto(name, rows, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state snowflake PredictInto allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}
