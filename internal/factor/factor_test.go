package factor

import (
	"fmt"
	"math/rand"
	"testing"

	"factorml/internal/join"
	"factorml/internal/parallel"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// buildStar creates a tiny star schema (fact(40) ⋈ dim(7)) and returns the
// validated spec.
func buildStar(t *testing.T) (*storage.Database, *join.Spec) {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	dim, err := db.CreateTable(&storage.Schema{Name: "dim", Keys: []string{"rid"}, Features: []string{"d1", "d2"}})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := db.CreateTable(&storage.Schema{
		Name: "fact", Keys: []string{"sid", "fk1"}, Features: []string{"f1"}, Refs: []string{"dim"}, HasTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < 7; i++ {
		if err := dim.Append(&storage.Tuple{Keys: []int64{i}, Features: []float64{rng.NormFloat64(), rng.NormFloat64()}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i++ {
		tp := &storage.Tuple{Keys: []int64{i, i % 7}, Features: []float64{rng.NormFloat64()}, Target: float64(i)}
		if err := fact.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []*storage.Table{dim, fact} {
		if err := tb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := join.NewSnowflakeSpec(fact, []*storage.Table{dim}, db.Table)
	if err != nil {
		t.Fatal(err)
	}
	return db, spec
}

// collectRows drains a source scan into concrete rows.
func collectRows(t *testing.T, scan func(RowFn) error) (rows [][]float64, ys []float64) {
	t.Helper()
	if err := scan(func(x []float64, y float64) error {
		rows = append(rows, append([]float64{}, x...))
		ys = append(ys, y)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows, ys
}

// TestSourcesAgree: the access paths Open builds for the three strategies
// deliver the identical joined rows and targets in the identical order —
// what lets every strategy initialize the same model — and the two dense
// sources the identical group boundaries, the property that makes the M
// and S strategies interchangeable accumulators-side.
func TestSourcesAgree(t *testing.T) {
	db, spec := buildStar(t)
	var wantRows [][]float64
	var wantYs []float64
	dense := make(map[plan.Strategy]*Path)
	for _, s := range []plan.Strategy{plan.Materialized, plan.Streaming, plan.Factorized} {
		rows, err := Open(db, spec, s, "T_test")
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		defer rows.Close()
		if rows.Width != spec.JoinedWidth() {
			t.Fatalf("%s: width %d, spec %d", s, rows.Width, spec.JoinedWidth())
		}
		got, ys := collectRows(t, rows.Scan)
		if len(got) != 40 {
			t.Fatalf("%s: scanned %d rows, want 40", s, len(got))
		}
		if wantRows == nil {
			wantRows, wantYs = got, ys
		}
		for i := range got {
			if fmt.Sprint(got[i]) != fmt.Sprint(wantRows[i]) || ys[i] != wantYs[i] {
				t.Fatalf("%s: row %d differs: %v/%v vs %v/%v", s, i, got[i], ys[i], wantRows[i], wantYs[i])
			}
		}
		// Scans are repeatable.
		if again, _ := collectRows(t, rows.Scan); len(again) != 40 {
			t.Fatalf("%s: rescan yielded %d rows", s, len(again))
		}
		if rows.Parts == nil {
			dense[s] = rows
		}
		// Only a materialized T has its row order fixed on disk.
		if (rows.Shuffle == nil) != (s == plan.Materialized) {
			t.Fatalf("%s: shuffle hook present = %v", s, rows.Shuffle != nil)
		}
	}
	if _, ok := dense[plan.Factorized]; ok || len(dense) != 2 {
		t.Fatalf("dense sources = %v, want exactly materialized and streaming", dense)
	}
	if _, err := Open(db, spec, plan.Auto, "T_auto"); err == nil {
		t.Fatal("Open accepted Auto, which is not an access path")
	}

	// Group boundaries coincide (single block here, but the callback
	// cadence must match exactly).
	countGroups := func(scan GroupedScan) (rows, groups int) {
		err := scan(
			func(x []float64, y float64) error { rows++; return nil },
			func() error { groups++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	mr, mg := countGroups(dense[plan.Materialized].ScanGroups)
	sr, sg := countGroups(dense[plan.Streaming].ScanGroups)
	if mr != sr || mg != sg {
		t.Fatalf("grouped scans differ: %d rows/%d groups vs %d rows/%d groups", mr, mg, sr, sg)
	}
}

// TestSourcesAgreeWithLeadingEmptyBlocks: group boundaries still coincide
// when the first join blocks match no fact tuples (a leading zero in the
// materializer's per-block counts used to desynchronize every later
// boundary of the materialized source).
func TestSourcesAgreeWithLeadingEmptyBlocks(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// A very wide dimension (2 rows per page) with BlockPages=1 gives
	// 2-row join blocks; facts reference only rids 2..5, so the first
	// block (rids 0,1) is empty.
	wide := make([]string, 500)
	for i := range wide {
		wide[i] = fmt.Sprintf("w%d", i)
	}
	dim, err := db.CreateTable(&storage.Schema{Name: "dim", Keys: []string{"rid"}, Features: wide})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := db.CreateTable(&storage.Schema{
		Name: "fact", Keys: []string{"sid", "fk1"}, Features: []string{"f1"}, Refs: []string{"dim"}, HasTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	feats := make([]float64, 500)
	for i := int64(0); i < 6; i++ {
		feats[0] = float64(i)
		if err := dim.Append(&storage.Tuple{Keys: []int64{i}, Features: feats}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 20; i++ {
		if err := fact.Append(&storage.Tuple{Keys: []int64{i, 2 + i%4}, Features: []float64{float64(i)}, Target: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []*storage.Table{dim, fact} {
		if err := tb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := join.NewSnowflakeSpec(fact, []*storage.Table{dim}, db.Table)
	if err != nil {
		t.Fatal(err)
	}
	spec.BlockPages = 1

	boundaries := func(scan GroupedScan) []int {
		rows := 0
		var cuts []int
		if err := scan(
			func(x []float64, y float64) error { rows++; return nil },
			func() error { cuts = append(cuts, rows); return nil }); err != nil {
			t.Fatal(err)
		}
		return cuts
	}
	ss, err := NewStreamedSource(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMaterializedSource(db, spec, "T_empty")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	sCuts, mCuts := boundaries(ss.ScanGroups), boundaries(ms.ScanGroups)
	if fmt.Sprint(sCuts) != fmt.Sprint(mCuts) {
		t.Fatalf("group boundaries diverge: streamed %v vs materialized %v", sCuts, mCuts)
	}
	if len(sCuts) < 3 || sCuts[0] != 0 {
		t.Fatalf("expected a leading empty block in %v", sCuts)
	}
}

// TestRunRowPassDeterministicAcrossWorkers: the chunked row pass reduces
// identically for every worker count — ordered merges over fixed chunk
// geometry — and reports global row indexes.
func TestRunRowPassDeterministicAcrossWorkers(t *testing.T) {
	const n, d = 1000, 3
	scan := func(onRow RowFn) error {
		x := make([]float64, d)
		for i := 0; i < n; i++ {
			for j := range x {
				x[j] = float64(i*d+j) * 0.25
			}
			if err := onRow(x, 0); err != nil {
				return err
			}
		}
		return nil
	}
	run := func(workers int) (float64, map[int]bool) {
		sum := 0.0
		starts := map[int]bool{}
		type acc struct {
			s     float64
			start int
		}
		err := RunRowPass("test.rowpass", workers, d, scan, PassHooks[acc]{
			NewAcc: func() acc { return acc{start: -1} },
			Fold: func(ac *acc, start int, rows, ys []float64, nr int) error {
				if ac.start < 0 {
					ac.start = start
				}
				if ys != nil {
					t.Error("row pass carried targets")
				}
				for i := 0; i < nr; i++ {
					for j := 0; j < d; j++ {
						ac.s += rows[i*d+j]
					}
				}
				return nil
			},
			Merge: func(ac *acc) error {
				sum += ac.s
				starts[ac.start] = true
				*ac = acc{start: -1}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum, starts
	}
	ref, refStarts := run(1)
	for _, w := range []int{2, 4} {
		got, starts := run(w)
		if got != ref {
			t.Errorf("workers=%d sum %v != sequential %v", w, got, ref)
		}
		// Chunk geometry is fixed: accumulators begin at multiples of the
		// chunk size regardless of the worker count.
		for s := range starts {
			if s%parallel.DefaultChunkRows != 0 {
				t.Errorf("workers=%d accumulator started mid-chunk at %d", w, s)
			}
		}
		if len(starts) != len(refStarts) {
			t.Errorf("workers=%d merged %d accumulators, sequential %d", w, len(starts), len(refStarts))
		}
	}
}

// TestRunSGDPassGroupBarriers: group boundaries flush the in-flight chunk
// and run the barrier hook in order, for every worker count.
func TestRunSGDPassGroupBarriers(t *testing.T) {
	const d = 2
	groups := [][]float64{{1, 2, 3}, {}, {4, 5}} // ys per group; one empty group
	scan := func(onRow RowFn, onGroup func() error) error {
		x := make([]float64, d)
		for _, g := range groups {
			for _, y := range g {
				if err := onRow(x, y); err != nil {
					return err
				}
			}
			if err := onGroup(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, w := range []int{1, 3} {
		var log []string
		seen := 0.0
		err := RunSGDPass("test.sgd", w, d, scan, true,
			func() error { log = append(log, fmt.Sprintf("step@%g", seen)); return nil },
			PassHooks[float64]{
				Fold: func(a *float64, _ int, rows, ys []float64, nr int) error {
					for i := 0; i < nr; i++ {
						*a += ys[i]
					}
					return nil
				},
				Merge: func(a *float64) error { seen, *a = seen+*a, 0; return nil },
			})
		if err != nil {
			t.Fatal(err)
		}
		want := "[step@6 step@6 step@15]"
		if got := fmt.Sprint(log); got != want {
			t.Errorf("workers=%d barrier log %s, want %s", w, got, want)
		}
	}
}

// TestPartScanSharesInitOrder: PartScan.Scan yields the identical row
// stream as the dense sources — the precondition for all strategies
// starting from the same initial model.
func TestPartScanSharesInitOrder(t *testing.T) {
	db, spec := buildStar(t)
	ps, err := NewPartScan(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.P.D != spec.JoinedWidth() {
		t.Fatalf("partition width %d != joined width %d", ps.P.D, spec.JoinedWidth())
	}
	pRows, pYs := collectRows(t, ps.Scan)
	if len(pYs) != 40 {
		t.Fatalf("partition scan delivered %d rows, want 40", len(pYs))
	}
	ms, err := NewMaterializedSource(db, spec, "T_init")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	mRows, mYs := collectRows(t, ms.Scan)
	if fmt.Sprint(pRows) != fmt.Sprint(mRows) || fmt.Sprint(pYs) != fmt.Sprint(mYs) {
		t.Fatal("PartScan.Scan row stream differs from the materialized source")
	}
}
