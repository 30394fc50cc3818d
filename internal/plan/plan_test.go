package plan

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"factorml/internal/join"
	"factorml/internal/storage"
)

// fabricate builds a SchemaStats by hand — the planner prices catalog
// numbers, so tests need no actual data.
func fabricate(n, factPages int64, dS int, dims ...Relation) *SchemaStats {
	return &SchemaStats{
		Fact:      Relation{Name: "fact", Stats: storage.TableStats{Rows: n, Pages: factPages, Width: dS}},
		Dims:      dims,
		HasTarget: true,
	}
}

func dim(name string, rows, pages int64, width int) Relation {
	return Relation{Name: name, Stats: storage.TableStats{Rows: rows, Pages: pages, Width: width}}
}

// TestPlannerWideDimensionFactorizedWins: a wide dimension relation with
// high fan-out (100k fact rows over 50 dimension tuples) is the paper's
// headline case — per-tuple work dominates the dense quadratic form, so
// Factorized must win for both families.
func TestPlannerWideDimensionFactorizedWins(t *testing.T) {
	ss := fabricate(100_000, 500, 2, dim("wide", 50, 2, 40))
	for _, m := range []ModelSpec{
		{Family: FamilyGMM, K: 3, Iters: 5},
		{Family: FamilyNN, Hidden: []int{16}, Epochs: 5},
	} {
		p, err := Choose(ss, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Chosen != Factorized {
			t.Errorf("%s: chose %v, want factorized\n%+v", m.Family, p.Chosen, p.Estimates)
		}
		// The factorized flop estimate must be well below the dense one —
		// d = 42 vs per-match work in dS = 2. The GMM saving is quadratic
		// (covariance outer products); the NN saving is the forward matvec
		// only (the input-layer gradient still touches every column), so it
		// is real but smaller.
		fo := p.Estimate(Factorized).Ops.Total()
		so := p.Estimate(Streaming).Ops.Total()
		if fo >= so {
			t.Errorf("%s: factorized flops %d not below streaming %d", m.Family, fo, so)
		}
		if m.Family == FamilyGMM && fo*2 > so {
			t.Errorf("gmm: factorized flops %d not <= half of streaming %d", fo, so)
		}
	}
}

// TestPlannerZeroWidthDimensionStreamingWins: with zero-width dimensions
// (pure key-resolution levels — the harness's zero-width edge) there is
// nothing to factorize, so the F estimate is S plus per-part overhead; a
// single-block join with a single EM iteration leaves Materialized paying
// its join+write premium for nothing — Streaming wins, Materialized stays
// competitive (the tiny-dim/huge-fact edge of the issue: T is actually
// *narrower* than S here because it drops the fk column, so with more
// passes Materialized overtakes — TestPlannerHugeFactManyPassesMaterializedWins).
func TestPlannerZeroWidthDimensionStreamingWins(t *testing.T) {
	ss := fabricate(50_000, 245, 2, dim("keysonly", 100, 1, 0))
	m := ModelSpec{Family: FamilyGMM, K: 3, Iters: 1}
	p, err := Choose(ss, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Chosen != Streaming {
		t.Fatalf("chose %v, want streaming\n%+v", p.Chosen, p.Estimates)
	}
	// Materialized is competitive: same flops, and the page premium is the
	// one-time materialization, bounded here at 2x of the winner's score.
	if ms, ws := p.Estimate(Materialized).Score, p.Estimates[0].Score; ms > 2*ws {
		t.Errorf("materialized score %g not competitive with winner %g", ms, ws)
	}
	if mo, so := p.Estimate(Materialized).Ops, p.Estimate(Streaming).Ops; mo != so {
		t.Errorf("M and S do identical math; ops differ: %+v vs %+v", mo, so)
	}
}

// TestPlannerHugeFactManyPassesMaterializedWins: a multi-block R1 makes
// every streamed pass rescan the huge fact table once per block, while
// Materialized pays the join once and then reads a narrow T per pass —
// with many EM iterations the amortization wins.
func TestPlannerHugeFactManyPassesMaterializedWins(t *testing.T) {
	ss := fabricate(50_000, 300, 2, dim("bigdim", 120_000, 256, 1))
	m := ModelSpec{Family: FamilyGMM, K: 3, Iters: 20}
	p, err := Choose(ss, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Chosen != Materialized {
		t.Fatalf("chose %v, want materialized\n%+v", p.Chosen, p.Estimates)
	}
	// Sanity: the multi-block pass really is the reason.
	if nb := ss.numBlocks(); nb < 2 {
		t.Fatalf("numBlocks = %d, want >= 2 for this shape", nb)
	}
	if mp, sp := p.Estimate(Materialized).Pages, p.Estimate(Streaming).Pages; mp >= sp {
		t.Errorf("materialized pages %d not below streaming %d", mp, sp)
	}
}

// TestPlannerRankingAndTieBreak: estimates are sorted ascending by score,
// cover every strategy exactly once, and exact ties prefer Factorized.
func TestPlannerRanking(t *testing.T) {
	ss := fabricate(10_000, 60, 3, dim("d1", 100, 1, 4), dim("d2", 50, 1, 2))
	p, err := Choose(ss, ModelSpec{Family: FamilyGMM, K: 2, Iters: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Estimates) != 3 {
		t.Fatalf("%d estimates, want 3", len(p.Estimates))
	}
	seen := map[Strategy]bool{}
	for i, e := range p.Estimates {
		if seen[e.Strategy] {
			t.Fatalf("strategy %v listed twice", e.Strategy)
		}
		seen[e.Strategy] = true
		if i > 0 && p.Estimates[i-1].Score > e.Score {
			t.Fatalf("estimates not sorted: %g before %g", p.Estimates[i-1].Score, e.Score)
		}
	}
	if p.Chosen != p.Estimates[0].Strategy {
		t.Fatalf("Chosen %v != first estimate %v", p.Chosen, p.Estimates[0].Strategy)
	}
	// With page cost zeroed out, S and F differ only in flops; a zero-width
	// dimension makes the *pages* identical and the flops differ, so force
	// an exact tie instead via FlopsPerPage=0 on an M-vs-S comparison: both
	// do identical math, so the tie-break must prefer Streaming over
	// Materialized (pref order F > S > M).
	p2, err := Choose(ss, ModelSpec{Family: FamilyGMM, K: 2, Iters: 4}, Options{FlopsPerPage: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	var mIdx, sIdx int
	for i, e := range p2.Estimates {
		switch e.Strategy {
		case Materialized:
			mIdx = i
		case Streaming:
			sIdx = i
		}
	}
	if sIdx > mIdx {
		t.Errorf("near-zero page weight: streaming ranked %d after materialized %d", sIdx, mIdx)
	}
}

// TestPlannerValidation: nonsense specs are rejected.
func TestPlannerValidation(t *testing.T) {
	ss := fabricate(100, 1, 2, dim("d", 10, 1, 1))
	bad := []ModelSpec{
		{Family: FamilyGMM, K: 0, Iters: 5},
		{Family: FamilyGMM, K: 2, Iters: 0},
		{Family: FamilyNN, Epochs: 0, Hidden: []int{4}},
		{Family: Family(9), K: 1, Iters: 1},
	}
	for _, m := range bad {
		if _, err := Choose(ss, m, Options{}); err == nil {
			t.Errorf("spec %+v accepted, want error", m)
		}
	}
	// An empty Hidden is legal: it prices the degenerate [d, 1] network a
	// hidden-less warm start would actually train.
	if p, err := Choose(ss, ModelSpec{Family: FamilyNN, Epochs: 3}, Options{}); err != nil {
		t.Errorf("hidden-less NN spec rejected: %v", err)
	} else if len(p.Estimates) != 3 {
		t.Errorf("hidden-less NN spec produced %d estimates", len(p.Estimates))
	}
	if _, err := Choose(&SchemaStats{Fact: ss.Fact}, ModelSpec{Family: FamilyGMM, K: 1, Iters: 1}, Options{}); err == nil {
		t.Error("schema without dimensions accepted")
	}
}

// TestCollectFromCatalog: Collect reads the per-table statistics through
// the storage layer for a real (tiny) snowflake schema.
func TestCollectFromCatalog(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sub, err := db.CreateTable(&storage.Schema{Name: "sub", Keys: []string{"rid"}, Features: []string{"s1"}})
	if err != nil {
		t.Fatal(err)
	}
	dimT, err := db.CreateTable(&storage.Schema{
		Name: "dim", Keys: []string{"rid", "fk1"}, Features: []string{"d1", "d2"}, Refs: []string{"sub"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := db.CreateTable(&storage.Schema{
		Name: "fact", Keys: []string{"sid", "fk1"}, Features: []string{"f1"}, Refs: []string{"dim"}, HasTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := sub.Append(&storage.Tuple{Keys: []int64{i}, Features: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 6; i++ {
		if err := dimT.Append(&storage.Tuple{Keys: []int64{i, i % 3}, Features: []float64{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i++ {
		if err := fact.Append(&storage.Tuple{Keys: []int64{i, i % 6}, Features: []float64{3}, Target: 1}); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := join.NewSnowflakeSpec(fact, []*storage.Table{dimT}, db.Table)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Collect(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Fact.Stats.Rows != 40 || len(ss.Dims) != 2 {
		t.Fatalf("Collect = %+v", ss)
	}
	if ss.Dims[0].Name != "dim" || ss.Dims[1].Name != "sub" {
		t.Fatalf("dims out of order: %s, %s", ss.Dims[0].Name, ss.Dims[1].Name)
	}
	if got := ss.Fact.Stats.FKDistinct[0]; got != 6 {
		t.Fatalf("fact fk distinct = %d, want 6", got)
	}
	if got := ss.JoinedWidth(); got != 1+2+1 {
		t.Fatalf("JoinedWidth = %d, want 4", got)
	}
	if !ss.HasTarget {
		t.Fatal("HasTarget lost")
	}
	// A plan over the collected stats chooses *something* and prices all
	// three strategies with positive costs.
	p, err := Choose(ss, ModelSpec{Family: FamilyNN, Hidden: []int{4}, Epochs: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Estimates {
		if e.Ops.Total() <= 0 || e.Pages <= 0 || e.Score <= 0 {
			t.Fatalf("degenerate estimate %+v", e)
		}
	}
}

// TestPlanJSONRoundTrip: a Plan survives its own JSON — the stream
// checkpoints the plan an attached network refreshes by and must read back
// the very decision it wrote, strategy names included.
func TestPlanJSONRoundTrip(t *testing.T) {
	m := ModelSpec{Family: FamilyNN, Hidden: []int{8}, Epochs: 2, BlockMode: true}
	ss := fabricate(5_000, 25, 3, dim("r", 40, 3, 6))
	ss.BlockPages = 1 // the join's block size travels with the statistics
	p, err := Choose(ss, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, p) {
		t.Fatalf("plan changed across JSON:\n got %+v\nwant %+v", &back, p)
	}
	// A plan written before the statistics carried a block size (no
	// "block_pages" key) loads, and prices at the join's default: the
	// 3-page R1 is then one block, not three.
	old := bytes.Replace(raw, []byte(`,"block_pages":1`), nil, 1)
	if bytes.Equal(old, raw) {
		t.Fatalf("plan JSON carries no block_pages to strip: %s", raw)
	}
	var legacy Plan
	if err := json.Unmarshal(old, &legacy); err != nil {
		t.Fatalf("plan JSON without block_pages does not load: %v", err)
	}
	if legacy.Stats.BlockPages != 0 || legacy.Stats.numBlocks() != 1 || back.Stats.numBlocks() != 3 {
		t.Fatalf("block size across JSON: legacy %d (%d blocks), current %d (%d blocks)",
			legacy.Stats.BlockPages, legacy.Stats.numBlocks(), back.Stats.BlockPages, back.Stats.numBlocks())
	}
	repriced, err := Choose(legacy.Stats, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dp, bp := repriced.Estimate(Streaming).Pages, p.Estimate(Streaming).Pages; dp >= bp {
		t.Fatalf("one-block plan prices %d pages, three-block plan %d", dp, bp)
	}
	var s Strategy
	// A persisted choice is an access path by its full name: not Auto, and
	// not the command line's one-letter spellings.
	for _, bad := range []string{"vectorized", "auto", "m", "s", "f", ""} {
		if err := json.Unmarshal([]byte(strconv.Quote(bad)), &s); err == nil {
			t.Fatalf("strategy name %q accepted from JSON", bad)
		}
	}
	if err := json.Unmarshal([]byte(`2`), &s); err == nil {
		t.Fatal("numeric strategy accepted")
	}
}

// TestParseStrategy: every strategy reads back from the name it prints,
// the three access paths also from the paper's one-letter prefix, and
// nothing else parses.
func TestParseStrategy(t *testing.T) {
	for s := Materialized; s <= Auto; s++ {
		spellings := []string{s.String()}
		if s != Auto {
			spellings = append(spellings, s.String()[:1])
		}
		for _, name := range spellings {
			if got, err := ParseStrategy(name); err != nil || got != s {
				t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	for _, bad := range []string{"", "a", "x", "F", "Strategy(7)", "factorised"} {
		if got, err := ParseStrategy(bad); err == nil {
			t.Fatalf("ParseStrategy(%q) = %v, want an error", bad, got)
		}
	}
	if got := Strategy(7).String(); got != "Strategy(7)" {
		t.Fatalf("out-of-range String = %q", got)
	}
}
