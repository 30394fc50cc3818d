package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"factorml/internal/core"
	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/storage"
)

// genStar creates a small synthetic star schema and returns the database,
// the join spec and the relation partition.
func genStar(t *testing.T, nS int, nR []int, dS int, dR []int, seed int64) (*storage.Database, *join.Spec, core.Partition) {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	spec, err := data.Generate(db, "st", data.SynthConfig{
		NS: nS, NR: nR, DS: dS, DR: dR, Seed: seed, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{dS}
	dims = append(dims, dR...)
	return db, spec, core.NewPartition(dims)
}

func buildIndexes(t *testing.T, spec *join.Spec) []*join.ResidentIndex {
	t.Helper()
	var idxs []*join.ResidentIndex
	for _, r := range spec.Rs {
		ix, err := join.BuildResidentIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, ix)
	}
	return idxs
}

// resolverFor wraps the per-relation indexes in a hierarchy resolver (the
// one-hop star edges for these fixtures).
func resolverFor(t *testing.T, spec *join.Spec, idxs []*join.ResidentIndex) *join.Resolver {
	t.Helper()
	plan := spec.Plan()
	rv, err := join.NewResolver(plan.Parent, plan.Ref, idxs)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

func trainBase(t *testing.T, db *storage.Database, spec *join.Spec, k int) *gmm.Model {
	t.Helper()
	res, err := gmm.TrainF(db, spec, gmm.Config{K: k, MaxIter: 3, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

// appendDeltaFacts appends n new fact rows with keys drawn from the
// existing dimension tuples (and targets/features from a seeded RNG).
func appendDeltaFacts(t *testing.T, spec *join.Spec, idxs []*join.ResidentIndex, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dS := spec.S.Schema().NumFeatures()
	base := spec.S.NumTuples()
	for i := 0; i < n; i++ {
		keys := []int64{base + int64(i)}
		for _, ix := range idxs {
			g := rng.Intn(ix.Len())
			pk, _ := ix.At(g)
			keys = append(keys, pk)
		}
		feats := make([]float64, dS)
		for d := range feats {
			feats[d] = rng.NormFloat64()
		}
		if err := spec.S.Append(&storage.Tuple{Keys: keys, Features: feats, Target: rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := spec.S.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestGMMIncrementalMatchesFullRecompute pins the tentpole property: after
// any split of the data into absorb batches, and under every worker
// count, the maintained statistics produce a refreshed model bit-identical
// to recomputing the statistics from scratch over base ∪ delta (the
// "full retraining" baseline: one warm-start EM step computed the
// expensive way). Covers the binary and the multi-way join (which
// exercises the cross-dimension group-pair stats), plus dimension-tuple
// inserts arriving mid-stream.
func TestGMMIncrementalMatchesFullRecompute(t *testing.T) {
	cases := []struct {
		name string
		nR   []int
		dR   []int
	}{
		{"binary", []int{24}, []int{2}},
		{"3way", []int{24, 10}, []int{2, 3}},
	}
	workerSweep := []int{1, 2, 3, 8}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, spec, p := genStar(t, 580, tc.nR, 3, tc.dR, 7)
			model := trainBase(t, db, spec, 3)
			idxs := buildIndexes(t, spec)

			// One stats object per worker count, all absorbing the base
			// now — before any delta exists.
			incs := make([]*GMMStats, len(workerSweep))
			for i, w := range workerSweep {
				incs[i] = NewGMMStats(resolverFor(t, spec, idxs), p.Dims[0], model)
				if err := incs[i].Absorb(model, spec.S, w); err != nil {
					t.Fatal(err)
				}
			}

			// Delta batch 1: 137 fact rows (odd size, so chunk boundaries
			// straddle the base/delta seam).
			appendDeltaFacts(t, spec, idxs, 137, 11)
			for i, w := range workerSweep {
				if err := incs[i].Absorb(model, spec.S, w); err != nil {
					t.Fatal(err)
				}
			}

			// Delta batch 2: a brand-new dimension tuple in every relation
			// plus 61 more fact rows, some referencing the new tuples.
			for j, ix := range idxs {
				feats := make([]float64, ix.Width())
				for d := range feats {
					feats[d] = 0.25 * float64(j+d+1)
				}
				newPK := int64(100000 + j)
				if err := spec.Rs[j].Append(&storage.Tuple{Keys: []int64{newPK}, Features: feats}); err != nil {
					t.Fatal(err)
				}
				if err := spec.Rs[j].Flush(); err != nil {
					t.Fatal(err)
				}
				if _, err := ix.Upsert(newPK, nil, feats); err != nil {
					t.Fatal(err)
				}
			}
			base := spec.S.NumTuples()
			for i := 0; i < 61; i++ {
				keys := []int64{base + int64(i)}
				for j, ix := range idxs {
					if i%5 == 0 {
						keys = append(keys, int64(100000+j)) // new dimension tuple
					} else {
						pk, _ := ix.At(i % (ix.Len() - 1))
						keys = append(keys, pk)
					}
				}
				feats := []float64{float64(i) * 0.01, -float64(i) * 0.02, 1}
				if err := spec.S.Append(&storage.Tuple{Keys: keys, Features: feats, Target: 0}); err != nil {
					t.Fatal(err)
				}
			}
			if err := spec.S.Flush(); err != nil {
				t.Fatal(err)
			}
			for i, w := range workerSweep {
				if err := incs[i].Absorb(model, spec.S, w); err != nil {
					t.Fatal(err)
				}
			}

			// Baseline: fresh statistics recomputed from scratch over the
			// union, per worker count.
			refModel, err := incs[0].Step(model)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range workerSweep {
				mInc, err := incs[i].Step(model)
				if err != nil {
					t.Fatal(err)
				}
				if d := mInc.MaxParamDiff(refModel); d != 0 {
					t.Fatalf("incremental model (workers=%d) differs from workers=%d by %g", w, workerSweep[0], d)
				}
				full := NewGMMStats(resolverFor(t, spec, idxs), p.Dims[0], model)
				if err := full.Absorb(model, spec.S, w); err != nil {
					t.Fatal(err)
				}
				if full.Rows() != incs[i].Rows() {
					t.Fatalf("row counts: full=%d inc=%d", full.Rows(), incs[i].Rows())
				}
				mFull, err := full.Step(model)
				if err != nil {
					t.Fatal(err)
				}
				if d := mInc.MaxParamDiff(mFull); d != 0 {
					t.Fatalf("incremental vs full-recompute model (workers=%d) differ by %g (want bit-identical)", w, d)
				}
				if ll1, ll2 := incs[i].LogLikelihood(), full.LogLikelihood(); ll1 != ll2 {
					t.Fatalf("log-likelihoods differ: inc=%v full=%v", ll1, ll2)
				}
				// The statistics themselves, slot for slot, as a checkpoint
				// would write them.
				if !reflect.DeepEqual(incs[i].state(), full.state()) {
					t.Fatalf("incremental and from-scratch statistics (workers=%d) differ", w)
				}
			}
		})
	}
}

// TestGMMStatsFootprint pins what the statistics cost on the benchmark's
// snowflake_narrow shape — three depth-2 direct dimensions of 9000, 3000
// and 1500 narrow tuples under a 12-wide fact table, uniform keys, K=5, so
// nearly every row brings a new tuple: exactly the done and open sums over
// the joined row, their origin and the pass index (4 bytes per dimension
// tuple), whatever the number of rows; a rebaseline whose allocation count
// is pinned, per pass and not per row; and no growth at all from rows over
// dimension tuples no absorbed row referenced, which a store of per-tuple
// sums would give a slot each.
func TestGMMStatsFootprint(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	spec, err := data.Generate(db, "sn", data.SynthConfig{
		NS: 7000, NR: []int{9000, 3000, 1500}, DS: 12, DR: []int{3, 3, 2}, Depth: 2, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gmm.TrainF(db, spec, gmm.Config{K: 5, MaxIter: 1, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	idxs, err := spec.Plan().BuildIndexes(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := NewGMMStats(resolverFor(t, spec, idxs), 12, res.Model)
	if err := st.Absorb(res.Model, spec.S, 1); err != nil {
		t.Fatal(err)
	}
	fp := st.Footprint()
	rows := spec.S.NumTuples()
	k, d := res.Model.K, res.Model.D
	want := int64(2 * 8 * (1 + k + k*(d+d*d) + k*d)) // done and open: ll, N_k, s1, s2, origin
	for d := range st.slots {
		want += st.slots[d].IndexBytes()
	}
	t.Logf("footprint %+v over %d rows", fp, rows)
	if fp != (Footprint{Rows: rows, Bytes: want}) {
		t.Errorf("footprint %+v, want %d rows and %d bytes (K=%d, D=%d)", fp, rows, want, k, d)
	}

	allocs := testing.AllocsPerRun(3, func() {
		st.Reset(res.Model)
		if err := st.Absorb(res.Model, spec.S, 1); err != nil {
			t.Fatal(err)
		}
	})
	// What is left is per pass (the scorer's factorized covariances, the
	// caches, the one chunk object of a one-worker run) or per chunk (a cache
	// fill's closures), never per row. Nothing is pooled across passes, so
	// the count is exact and the same under the race detector.
	const wantAllocs = 391
	t.Logf("%.0f allocations per warm rebaseline of %d rows", allocs, rows)
	if allocs < wantAllocs-2 || allocs > wantAllocs+2 {
		t.Errorf("a warm rebaseline of %d rows allocates %.0f times, want %d ± 2", rows, allocs, wantAllocs)
	}
	if got := st.Footprint(); got != fp {
		t.Errorf("footprint moved across rebaselines: %+v, then %+v", fp, got)
	}

	// Rows whose every key is a dimension tuple no absorbed row references.
	touched := make([][]bool, len(st.slots))
	for d := range touched {
		touched[d] = make([]bool, idxs[st.rv.Direct()[d]].Len())
	}
	sc := spec.S.NewScanner()
	for sc.Next() {
		for d := range touched {
			g, _ := idxs[st.rv.Direct()[d]].Pos(sc.Tuple().Keys[1+d])
			touched[d][g] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	untouched := make([][]int, len(touched))
	for d, seen := range touched {
		for g, ok := range seen {
			if !ok {
				untouched[d] = append(untouched[d], g)
			}
		}
		if len(untouched[d]) == 0 {
			t.Fatalf("every tuple of direct dimension %d is referenced", d)
		}
	}
	const extra = 500
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < extra; i++ {
		keys := []int64{rows + int64(i)}
		for d, groups := range untouched {
			pk, _ := idxs[st.rv.Direct()[d]].At(groups[i%len(groups)])
			keys = append(keys, pk)
		}
		feats := make([]float64, 12)
		for j := range feats {
			feats[j] = rng.NormFloat64()
		}
		if err := spec.S.Append(&storage.Tuple{Keys: keys, Features: feats}); err != nil {
			t.Fatal(err)
		}
	}
	if err := spec.S.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Absorb(res.Model, spec.S, 1); err != nil {
		t.Fatal(err)
	}
	if got := st.Footprint(); got != (Footprint{Rows: rows + extra, Bytes: fp.Bytes}) {
		t.Errorf("%d rows over %d, %d and %d untouched dimension tuples grew the statistics: %+v, then %+v",
			extra, len(untouched[0]), len(untouched[1]), len(untouched[2]), fp, got)
	}
}
