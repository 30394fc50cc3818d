package factor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"factorml/internal/join"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// buildStar creates a tiny star schema (fact(40) ⋈ dim(7)) and returns the
// validated spec.
func buildStar(t *testing.T) (*storage.Database, *join.Spec) {
	return buildJoin(t, 40, 7, func(i int64) int64 { return i % 7 })
}

// buildJoin creates fact(n) ⋈ dim(m), fact row i joining dimension row
// fk(i) with target i, and returns the validated spec.
func buildJoin(t *testing.T, n, m int64, fk func(i int64) int64) (*storage.Database, *join.Spec) {
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
	for i := range m {
		if err := dim.Append(&storage.Tuple{Keys: []int64{i}, Features: []float64{rng.NormFloat64(), rng.NormFloat64()}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range n {
		tp := &storage.Tuple{Keys: []int64{i, fk(i)}, Features: []float64{rng.NormFloat64()}, Target: float64(i)}
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
// what lets every strategy initialize the same model — over the partition
// the strategy trains on: the fact part and the dimension for F, the
// one-part partition for M and S, which factorize nothing.
func TestSourcesAgree(t *testing.T) {
	db, spec := buildStar(t)
	var wantRows [][]float64
	var wantYs []float64
	for _, s := range []plan.Strategy{plan.Materialized, plan.Streaming, plan.Factorized} {
		ps, err := Open(db, spec, s, "T_test")
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		defer ps.Close()
		if ps.Direct.D != spec.JoinedWidth() {
			t.Fatalf("%s: width %d, spec %d", s, ps.Direct.D, spec.JoinedWidth())
		}
		if parts := ps.Direct.Parts(); (parts == 1) == (s == plan.Factorized) {
			t.Fatalf("%s: %d parts", s, parts)
		}
		got, ys := collectRows(t, ps.Scan)
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
		if again, _ := collectRows(t, ps.Scan); len(again) != 40 {
			t.Fatalf("%s: rescan yielded %d rows", s, len(again))
		}
		// Only a materialized T has its row order fixed on disk.
		if (ps.Shuffle == nil) != (s == plan.Materialized) {
			t.Fatalf("%s: shuffle hook present = %v", s, ps.Shuffle != nil)
		}
	}
	if _, err := Open(db, spec, plan.Auto, "T_auto"); err == nil {
		t.Fatal("Open accepted Auto, which is not an access path")
	}
}

// blockCuts runs one pass over ps and returns, at every block end, how
// many matches had been merged: a block end must come after its block's
// last chunk is merged, the in-flight one included.
func blockCuts(t *testing.T, ps *PartScan, workers int) []int {
	t.Helper()
	merged := 0
	var cuts []int
	err := RunChunks(ps, workers, join.ParallelCallbacks[int]{
		OnMatchChunk:  func(n *int, matches []join.Match) error { *n = len(matches); return nil },
		OnChunkMerged: func(n *int) error { merged, *n = merged+*n, 0; return nil },
		OnBlockEnd:    func() error { cuts = append(cuts, merged); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return cuts
}

// TestSourcesAgreeWithLeadingEmptyBlocks: the block ends of the M path's
// runner, through RunChunks, fall where S's and F's do when the first join
// blocks match no fact tuples (a leading zero in the materializer's
// per-block counts used to desynchronize every later boundary of the
// materialized source).
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

	cuts := make(map[plan.Strategy][]int)
	for _, s := range []plan.Strategy{plan.Materialized, plan.Streaming, plan.Factorized} {
		ps, err := Open(db, spec, s, "T_empty")
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		cuts[s] = blockCuts(t, ps, 2)
	}
	sCuts, mCuts := cuts[plan.Streaming], cuts[plan.Materialized]
	if fmt.Sprint(sCuts) != fmt.Sprint(mCuts) || fmt.Sprint(sCuts) != fmt.Sprint(cuts[plan.Factorized]) {
		t.Fatalf("block ends diverge: streamed %v, materialized %v, factorized %v", sCuts, mCuts, cuts[plan.Factorized])
	}
	if len(sCuts) < 3 || sCuts[0] != 0 {
		t.Fatalf("expected a leading empty block in %v", sCuts)
	}
}

// buildBlocks creates fact(n) ⋈ dim(m) with the dimension in several
// BlockPages=1 blocks, rows that a chunk cannot hold in one, dangling
// foreign keys (every ninth row), and a block no fact row joins.
func buildBlocks(t *testing.T, n, m int64) (*storage.Database, *join.Spec) {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	wide := make([]string, 40)
	for i := range wide {
		wide[i] = fmt.Sprintf("w%d", i)
	}
	dim, err := db.CreateTable(&storage.Schema{Name: "dim", Keys: []string{"rid"}, Features: wide})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := db.CreateTable(&storage.Schema{
		Name: "fact", Keys: []string{"sid", "fk1"}, Features: []string{"f1", "f2"}, Refs: []string{"dim"}, HasTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	feats := make([]float64, len(wide))
	for i := range m {
		for j := range feats {
			feats[j] = rng.NormFloat64() * float64(1+j)
		}
		if err := dim.Append(&storage.Tuple{Keys: []int64{i}, Features: feats}); err != nil {
			t.Fatal(err)
		}
	}
	perPage := int64(dim.Schema().RecordsPerPage())
	for i := range n {
		fk := perPage + rng.Int63n(m-perPage) // the first block joins nothing
		if i%9 == 0 {
			fk = m + i // dangling
		}
		tp := &storage.Tuple{Keys: []int64{i, fk}, Features: []float64{rng.NormFloat64() * 1e3, rng.NormFloat64()}, Target: float64(i % 5)}
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
	spec.BlockPages = 1
	return db, spec
}

// TestRunChunksDeterministicAcrossWorkers: a pass over the M and the S
// path — the runners that factorize nothing — cuts the same chunks and
// reduces to the same bits for every worker count: fixed chunk geometry,
// merged in chunk order. Every match is a whole joined row with no arena
// rows, and a chunk never spans a block.
func TestRunChunksDeterministicAcrossWorkers(t *testing.T) {
	db, spec := buildBlocks(t, 3000, 120)
	d := spec.JoinedWidth()
	for _, s := range []plan.Strategy{plan.Materialized, plan.Streaming} {
		ps, err := Open(db, spec, s, "T_chunks")
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		type acc struct {
			sum   float64
			n     int
			block int
		}
		run := func(workers int) (float64, string) {
			sum, blocks := 0.0, 0
			var chunks []string
			err := RunChunks(ps, workers, join.ParallelCallbacks[acc]{
				OnMatchChunk: func(a *acc, matches []join.Match) error {
					a.n, a.block = len(matches), blocks
					for _, m := range matches {
						if len(m.Pos) != 0 || len(m.S.Features) != d {
							return fmt.Errorf("match with %d arena rows and %d features, want 0 and %d", len(m.Pos), len(m.S.Features), d)
						}
						for j, v := range m.S.Features {
							a.sum += v * float64(j+1)
						}
					}
					return nil
				},
				OnChunkMerged: func(a *acc) error {
					if a.block != blocks {
						return fmt.Errorf("chunk of block %d merged in block %d", a.block, blocks)
					}
					sum += a.sum
					chunks = append(chunks, fmt.Sprint(a.n))
					*a = acc{}
					return nil
				},
				OnBlockEnd: func() error { blocks++; chunks = append(chunks, "|"); return nil },
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s, workers, err)
			}
			return sum, fmt.Sprint(chunks)
		}
		ref, refChunks := run(1)
		if strings.Count(refChunks, "|") < 3 {
			t.Fatalf("%s: chunks %s: want several blocks", s, refChunks)
		}
		// T's chunks are cut every ParallelChunkRows rows; S's, like F's,
		// every ParallelChunkRows fact tuples scanned, matched or not.
		if full := strings.Contains(refChunks, fmt.Sprint(join.ParallelChunkRows)); full != (s == plan.Materialized) {
			t.Fatalf("%s: chunks %s", s, refChunks)
		}
		for _, w := range []int{2, 4} {
			got, chunks := run(w)
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Errorf("%s workers=%d: sum %v != sequential %v", s, w, got, ref)
			}
			if chunks != refChunks {
				t.Errorf("%s workers=%d: chunks %s, sequential %s", s, w, chunks, refChunks)
			}
		}
	}
}

// TestRunChunksBlockBarriers: on the M and S paths a block end flushes
// the in-flight chunk and runs at a barrier — every match of the block,
// and none of the next, is merged when it runs — for every worker count,
// the empty leading block included; the sequential join is the reference.
func TestRunChunksBlockBarriers(t *testing.T) {
	db, spec := buildBlocks(t, 1200, 120)
	for _, s := range []plan.Strategy{plan.Materialized, plan.Streaming} {
		ps, err := Open(db, spec, s, "T_barriers")
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		var want []string
		seen := 0.0
		err = ps.runner.Run(join.Callbacks{
			OnMatch:    func(tp *storage.Tuple, _ []int) error { seen += tp.Target; return nil },
			OnBlockEnd: func() error { want = append(want, fmt.Sprintf("step@%g", seen)); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 3 || want[0] != "step@0" {
			t.Fatalf("%s: reference steps %v: want several blocks, the first empty", s, want)
		}
		for _, w := range []int{1, 3} {
			var log []string
			seen := 0.0
			err := RunChunks(ps, w, join.ParallelCallbacks[float64]{
				OnMatchChunk: func(a *float64, matches []join.Match) error {
					for _, m := range matches {
						*a += m.S.Target
					}
					return nil
				},
				OnChunkMerged: func(a *float64) error { seen, *a = seen+*a, 0; return nil },
				OnBlockEnd:    func() error { log = append(log, fmt.Sprintf("step@%g", seen)); return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(log) != fmt.Sprint(want) {
				t.Errorf("%s workers=%d barrier log %v, want %v", s, w, log, want)
			}
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
