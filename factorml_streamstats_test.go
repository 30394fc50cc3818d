package factorml

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"factorml/internal/join"
	"factorml/internal/storage"
	"factorml/internal/stream"
)

// This file holds the one oracle of the streaming tier's maintained GMM
// statistics: the seeded snowflake generator of the cross-strategy harness
// (depth 1–3, shared sub-dimensions, zero-width and single-row dimensions,
// the sparse one-row-per-tuple shape) feeds stream.GMMStats a change feed —
// fact appends, direct-dimension inserts, dimension updates that repoint
// sub-keys, on dense and on sparse (10·i − 7) direct-dimension keys — and
// asserts that
//
//   - every way of cutting the feed into absorb batches, under NumWorkers ∈
//     {1, 2, 4}, ends in the same Step model, log-likelihood and slot counts
//     byte for byte (a dimension update makes a run rebuild on its next
//     absorb, as the stream's dirty → rebaseline policy does), and
//   - that model is within 1e-9 of ONE warm-started dense EM step — the
//     Materialized trainer, MaxIter 1, Init — over the join as it then
//     stands, and
//   - the covariance structure is one more input: every other schema's
//     base model is a diagonal mixture, its oracle the diagonal dense step,
//     and the refreshed model is still one — flagged, every off-diagonal
//     exactly 0.
//
// Rerun a failing schema with FACTORML_EQUIV_SEED=<seed>
// FACTORML_EQUIV_COUNT=1, as for the cross-strategy harness.

// streamOracleSchemas is how many random schemas the oracle sweeps.
const streamOracleSchemas = 24

// statsRun is one statistics object absorbing the feed on its own schedule.
type statsRun struct {
	st      *stream.GMMStats
	workers int
	eager   float64 // chance of absorbing after a tick; the rest waits
	dirty   bool    // a dimension update since the last absorb
}

func TestStreamStatsOracle(t *testing.T) {
	masterSeed := equivEnvInt("FACTORML_EQUIV_SEED", 20261002)
	count := int(equivEnvInt("FACTORML_EQUIV_COUNT", streamOracleSchemas))
	if testing.Short() {
		count = 6
	}
	for i := 0; i < count; i++ {
		seed := masterSeed + int64(i)
		rng := rand.New(rand.NewSource(seed))
		db := openDB(t)
		// Every third schema keys its first direct dimension sparsely
		// (10·i − 7), so its resident index resolves through a key map.
		sparseKeys := i%3 == 2
		fact, _, shape := buildRandomSnowflake(t, db, rng, false, sparseKeys)
		ds, err := db.Dataset(fact)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, shape, err)
		}
		fatal := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("schema seed %d (%s): %v", seed, shape, err)
			}
		}
		diagonal := i%2 == 1
		base, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 2, Tol: 1e-300, Seed: seed, NumWorkers: 1, Diagonal: diagonal})
		fatal(err)
		model := base.Model

		spec := ds.spec
		plan := spec.Plan()
		idxs, err := plan.BuildIndexes(nil)
		fatal(err)
		rv, err := join.NewResolver(plan.Parent, plan.Ref, idxs)
		fatal(err)
		dS := spec.S.Schema().NumFeatures()

		var runs []*statsRun
		for _, w := range []int{1, 2, 4} {
			for _, eager := range []float64{1, 0.5, 0} {
				runs = append(runs, &statsRun{st: stream.NewGMMStats(rv, dS, model.K), workers: w, eager: eager})
			}
		}
		absorb := func(r *statsRun) {
			if r.dirty {
				r.st.Reset()
				r.dirty = false
			}
			fatal(r.st.Absorb(model, spec.S, r.workers))
		}

		// randomTuple draws a sub-key column and features for a tuple of
		// plan node j.
		randomTuple := func(j int) ([]int64, []float64) {
			subs := make([]int64, idxs[j].NumRefs())
			for c := j + 1; c < len(idxs); c++ {
				if plan.Parent[c] == j {
					subs[plan.Ref[c]], _ = idxs[c].At(rng.Intn(idxs[c].Len()))
				}
			}
			feats := make([]float64, idxs[j].Width())
			for k := range feats {
				feats[k] = rng.NormFloat64()
			}
			return subs, feats
		}
		var direct []int
		for j, p := range plan.Parent {
			if p == -1 {
				direct = append(direct, j)
			}
		}

		for tick := 0; tick < 6; tick++ {
			if tick > 0 {
				// A new tuple in one direct dimension, which this tick's
				// fact rows may reference …
				j := direct[rng.Intn(len(direct))]
				pk := int64(idxs[j].Len())
				if sparseKeys && j == direct[0] {
					pk = 10*pk - 7
				}
				subs, feats := randomTuple(j)
				fatal(spec.Rs[j].Append(&storage.Tuple{Keys: append([]int64{pk}, subs...), Features: feats}))
				fatal(spec.Rs[j].Flush())
				_, err := idxs[j].Upsert(pk, subs, feats)
				fatal(err)
				// … fact rows …
				for n := 1 + rng.Intn(150); n > 0; n-- {
					keys := []int64{spec.S.NumTuples()}
					for _, j := range direct {
						pk, _ := idxs[j].At(rng.Intn(idxs[j].Len()))
						keys = append(keys, pk)
					}
					x := make([]float64, dS)
					for k := range x {
						x[k] = rng.NormFloat64()
					}
					fatal(spec.S.Append(&storage.Tuple{Keys: keys, Features: x, Target: rng.NormFloat64()}))
				}
				fatal(spec.S.Flush())
				// … and, every other tick, an update that rewrites a tuple's
				// features and repoints its sub-keys.
				if tick%2 == 0 {
					j := rng.Intn(len(idxs))
					g := rng.Intn(idxs[j].Len())
					pk, _ := idxs[j].At(g)
					subs, feats := randomTuple(j)
					fatal(spec.Rs[j].UpdateAt(int64(g), &storage.Tuple{Keys: append([]int64{pk}, subs...), Features: feats}))
					_, err := idxs[j].Upsert(pk, subs, feats)
					fatal(err)
					for _, r := range runs {
						r.dirty = true
					}
				}
			}
			for _, r := range runs {
				if rng.Float64() < r.eager {
					absorb(r)
				}
			}
		}

		var want []byte
		for k, r := range runs {
			absorb(r)
			m, err := r.st.Step(model, 1e-6)
			fatal(err)
			var buf bytes.Buffer
			fatal(m.Save(&buf))
			fp := r.st.Footprint()
			fp.Bytes = 0 // capacities follow the growth history; what is stored must not
			fmt.Fprintf(&buf, "ll=%x footprint=%+v", r.st.LogLikelihood(), fp)
			if k == 0 {
				want = buf.Bytes()
				oracle, err := TrainGMM(ds, Materialized, GMMConfig{K: model.K, MaxIter: 1, Tol: 1e-300, Init: model, NumWorkers: 1, Diagonal: diagonal})
				fatal(err)
				if d := m.MaxParamDiff(oracle.Model); relDiffTooBig(d) {
					t.Errorf("schema seed %d (%s): Step differs from one warm-started dense EM step by %g", seed, shape, d)
				}
				if m.Diagonal != diagonal {
					t.Errorf("schema seed %d (%s): a Diagonal=%v model refreshed as Diagonal=%v", seed, shape, diagonal, m.Diagonal)
				}
				for c, cov := range m.Covs {
					for j, v := range cov.Data() {
						if diagonal && v != 0 && j/m.D != j%m.D {
							t.Errorf("schema seed %d (%s): refreshed diagonal model has cov[%d](%d,%d) = %g", seed, shape, c, j/m.D, j%m.D, v)
						}
					}
				}
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("schema seed %d (%s): workers=%d eager=%g ends in other bytes than workers=%d eager=%g",
					seed, shape, r.workers, r.eager, runs[0].workers, runs[0].eager)
			}
		}
	}
}
