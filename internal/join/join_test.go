package join

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"factorml/internal/storage"
)

// buildTables creates a fact table S(sid, fk1..fkq; dS features; target) and
// q dimension tables Ri(rid; dRi features). S tuple i references dimension
// key i % nRi in every dimension.
func buildTables(t *testing.T, db *storage.Database, nS int, dS int, nR []int, dR []int) *Spec {
	t.Helper()
	sSchema := &storage.Schema{Name: "S", Keys: []string{"sid"}, HasTarget: true}
	for i := range nR {
		sSchema.Keys = append(sSchema.Keys, fmt.Sprintf("fk%d", i+1))
	}
	for i := 0; i < dS; i++ {
		sSchema.Features = append(sSchema.Features, fmt.Sprintf("xs%d", i))
	}
	sTbl, err := db.CreateTable(sSchema)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{S: sTbl}
	for q := range nR {
		rSchema := &storage.Schema{Name: fmt.Sprintf("R%d", q+1), Keys: []string{"rid"}}
		for i := 0; i < dR[q]; i++ {
			rSchema.Features = append(rSchema.Features, fmt.Sprintf("xr%d_%d", q+1, i))
		}
		rTbl, err := db.CreateTable(rSchema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nR[q]; i++ {
			feats := make([]float64, dR[q])
			for j := range feats {
				feats[j] = float64(1000*(q+1) + 10*i + j)
			}
			if err := rTbl.Append(&storage.Tuple{Keys: []int64{int64(i)}, Features: feats}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rTbl.Flush(); err != nil {
			t.Fatal(err)
		}
		spec.Rs = append(spec.Rs, rTbl)
	}
	for i := 0; i < nS; i++ {
		keys := []int64{int64(i)}
		for q := range nR {
			keys = append(keys, int64(i%nR[q]))
		}
		feats := make([]float64, dS)
		for j := range feats {
			feats[j] = float64(10*i + j)
		}
		if err := sTbl.Append(&storage.Tuple{Keys: keys, Features: feats, Target: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sTbl.Flush(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func openDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

type joinedRow struct {
	sid int64
	x   []float64
	y   float64
}

func collectStream(t *testing.T, sp *Spec) []joinedRow {
	t.Helper()
	var rows []joinedRow
	err := Stream(sp, func(sid int64, x []float64, y float64) error {
		rows = append(rows, joinedRow{sid, append([]float64{}, x...), y})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestValidate(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 10, 2, []int{3}, []int{2})
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Spec{}).Validate(); err == nil {
		t.Fatal("empty spec should fail")
	}
	if err := (&Spec{S: sp.S}).Validate(); err == nil {
		t.Fatal("spec without dimensions should fail")
	}
	// Wrong fk arity: binary spec reusing a 2-fk fact table.
	db2 := openDB(t)
	sp2 := buildTables(t, db2, 5, 1, []int{2, 2}, []int{1, 1})
	bad := &Spec{S: sp2.S, Rs: sp2.Rs[:1]}
	if err := bad.Validate(); err == nil {
		t.Fatal("fk arity mismatch should fail")
	}
}

func TestBinaryJoinStreamContents(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 20, 2, []int{4}, []int{3})
	rows := collectStream(t, sp)
	if len(rows) != 20 {
		t.Fatalf("joined %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		i := int(r.sid)
		if len(r.x) != 5 {
			t.Fatalf("row %d has %d features, want 5", i, len(r.x))
		}
		if r.x[0] != float64(10*i) || r.x[1] != float64(10*i+1) {
			t.Fatalf("row %d S features wrong: %v", i, r.x[:2])
		}
		ri := i % 4
		for j := 0; j < 3; j++ {
			if r.x[2+j] != float64(1000+10*ri+j) {
				t.Fatalf("row %d R features wrong: %v", i, r.x[2:])
			}
		}
		if r.y != float64(i) {
			t.Fatalf("row %d target %v, want %v", i, r.y, float64(i))
		}
	}
}

func TestMaterializeMatchesStream(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 50, 3, []int{7}, []int{4})
	want := collectStream(t, sp)
	tTbl, counts, err := Materialize(db, sp, "T_S")
	if err != nil {
		t.Fatal(err)
	}
	if tTbl.Schema().Name != "T_S" {
		t.Fatalf("materialized name %q", tTbl.Schema().Name)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != int64(len(want)) {
		t.Fatalf("block counts sum to %d, want %d", total, len(want))
	}
	if tTbl.NumTuples() != int64(len(want)) {
		t.Fatalf("T has %d tuples, want %d", tTbl.NumTuples(), len(want))
	}
	sc := tTbl.NewScanner()
	i := 0
	for sc.Next() {
		tp := sc.Tuple()
		w := want[i]
		if tp.Keys[0] != w.sid || tp.Target != w.y {
			t.Fatalf("row %d: sid/target mismatch: got (%d,%v) want (%d,%v)", i, tp.Keys[0], tp.Target, w.sid, w.y)
		}
		for j := range w.x {
			if tp.Features[j] != w.x[j] {
				t.Fatalf("row %d feature %d: got %v want %v", i, j, tp.Features[j], w.x[j])
			}
		}
		i++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
}

func TestMultiBlockJoinCoversAllTuples(t *testing.T) {
	db := openDB(t)
	// R has 1200 tuples at 16 bytes each => 511/page => 3 pages. BlockPages=1
	// forces 3 blocks.
	sp := buildTables(t, db, 2000, 1, []int{1200}, []int{1})
	sp.BlockPages = 1
	runner, err := NewRunner(sp)
	if err != nil {
		t.Fatal(err)
	}
	if nb := runner.NumBlocks(); nb != 3 {
		t.Fatalf("NumBlocks = %d, want 3", nb)
	}
	seen := make(map[int64]bool)
	blocks := 0
	err = runner.Run(Callbacks{
		OnBlockStart: func([]Arena) error { blocks++; return nil },
		OnMatch: func(s *storage.Tuple, _ []int) error {
			if seen[s.Keys[0]] {
				return fmt.Errorf("sid %d emitted twice", s.Keys[0])
			}
			seen[s.Keys[0]] = true
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 3 {
		t.Fatalf("saw %d blocks, want 3", blocks)
	}
	if len(seen) != 2000 {
		t.Fatalf("joined %d distinct sids, want 2000", len(seen))
	}
}

func TestMultiBlockMaterializeMatchesStreamOrder(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 1500, 1, []int{1100}, []int{2})
	sp.BlockPages = 1
	want := collectStream(t, sp)
	tTbl, counts, err := Materialize(db, sp, "T_multi")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(sp)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(counts)) != runner.NumBlocks() {
		t.Fatalf("got %d block counts, want %d blocks", len(counts), runner.NumBlocks())
	}
	sc := tTbl.NewScanner()
	i := 0
	for sc.Next() {
		if sc.Tuple().Keys[0] != want[i].sid {
			t.Fatalf("row %d: sid %d, want %d (order must match)", i, sc.Tuple().Keys[0], want[i].sid)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("materialized %d rows, want %d", i, len(want))
	}
}

func TestMultiwayJoin(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 30, 2, []int{5, 3}, []int{2, 4})
	rows := collectStream(t, sp)
	if len(rows) != 30 {
		t.Fatalf("joined %d rows, want 30", len(rows))
	}
	if got, want := sp.JoinedWidth(), 2+2+4; got != want {
		t.Fatalf("JoinedWidth = %d, want %d", got, want)
	}
	for _, r := range rows {
		i := int(r.sid)
		r1 := i % 5
		r2 := i % 3
		if r.x[2] != float64(1000+10*r1) {
			t.Fatalf("row %d R1 feature: %v", i, r.x[2])
		}
		if r.x[4] != float64(2000+10*r2) || r.x[7] != float64(2000+10*r2+3) {
			t.Fatalf("row %d R2 features: %v", i, r.x[4:])
		}
	}
}

func TestDanglingFKSkipped(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 5, 1, []int{3}, []int{1})
	// Append a fact tuple referencing a missing dimension key.
	err := sp.S.Append(&storage.Tuple{Keys: []int64{99, 42}, Features: []float64{0}, Target: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.S.Flush(); err != nil {
		t.Fatal(err)
	}
	rows := collectStream(t, sp)
	if len(rows) != 5 {
		t.Fatalf("joined %d rows, want 5 (dangling fk skipped)", len(rows))
	}
}

// The block-nested-loops cost model of §V-A: one streaming pass costs
// |R| + ceil(|R|/BlockPages)·|S| logical page reads.
func TestBNLLogicalIOCostModel(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 3000, 1, []int{1200}, []int{1})
	sp.BlockPages = 1
	runner, err := NewRunner(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Prime resident load (none here) and measure one pass.
	io0 := db.IOStats()
	if err := StreamWith(runner, func(int64, []float64, float64) error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	st := db.IOStats().Sub(io0)
	rPages := sp.Rs[0].NumPages()
	sPages := sp.S.NumPages()
	want := rPages + runner.NumBlocks()*sPages
	if st.LogicalReads != want {
		t.Fatalf("logical reads = %d, want |R| + blocks·|S| = %d + %d·%d = %d",
			st.LogicalReads, rPages, runner.NumBlocks(), sPages, want)
	}
}

// A shuffled pass reads R1 through one scanner that seeks, block by block,
// the block's rows of perm in file order: the blocks hold R1's rows in
// exactly perm order, and the pass counts the BNL S term plus one R1 page
// read per page change along that read order (a seek onto the page the
// scanner holds reads nothing), so each page a block touches once.
func TestShuffledPassReadsPermOrderAndCountsPageChanges(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 3000, 1, []int{1200}, []int{1})
	sp.BlockPages = 1
	runner, err := NewRunner(sp)
	if err != nil {
		t.Fatal(err)
	}
	runner.Shuffle(rand.New(rand.NewSource(11)))
	if runner.NumBlocks() < 2 {
		t.Fatalf("%d R1 blocks, want several", runner.NumBlocks())
	}

	var order []int64
	err = runner.Run(Callbacks{OnBlockStart: func(dims []Arena) error {
		for i := range dims[0].N {
			order = append(order, int64(dims[0].Row(i)[0]-1000)/10) // buildTables' R1 features
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, runner.perm) { // R1's key is its row id
		t.Fatalf("blocks held R1 rows %v…, want perm's %v…", order[:8], runner.perm[:8])
	}

	perPage := int64(sp.Rs[0].Schema().RecordsPerPage())
	perBlock := int64(sp.BlockPages) * perPage
	changes, page := int64(0), int64(-1)
	for start := int64(0); start < int64(len(runner.perm)); start += perBlock {
		rows := slices.Clone(runner.perm[start:min(start+perBlock, int64(len(runner.perm)))])
		slices.Sort(rows)
		for _, row := range rows {
			if row/perPage != page {
				changes++
				page = row / perPage
			}
		}
	}
	io0 := db.IOStats()
	if err := StreamWith(runner, func(int64, []float64, float64) error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	want := runner.NumBlocks()*sp.S.NumPages() + changes
	if got := db.IOStats().Sub(io0).LogicalReads; got != want {
		t.Fatalf("shuffled pass read %d pages, want blocks·|S| + page changes = %d·%d + %d = %d",
			got, runner.NumBlocks(), sp.S.NumPages(), changes, want)
	}
}

func TestJoinedSchemaShape(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 1, 2, []int{2, 2}, []int{1, 3})
	sch := JoinedSchema(sp, "T")
	if sch.NumFeatures() != 6 || !sch.HasTarget || sch.NumKeys() != 1 {
		t.Fatalf("JoinedSchema = %v", sch)
	}
	if sch.Features[0] != "S.xs0" || sch.Features[2] != "R1.xr1_0" || sch.Features[3] != "R2.xr2_0" {
		t.Fatalf("JoinedSchema feature names = %v", sch.Features)
	}
}

func TestShuffleChangesBlockOrderNotContent(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 900, 1, []int{800}, []int{1})
	sp.BlockPages = 1
	runner, err := NewRunner(sp)
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []int64 {
		var sids []int64
		err := runner.Run(Callbacks{
			OnMatch: func(s *storage.Tuple, _ []int) error {
				sids = append(sids, s.Keys[0])
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sids
	}
	plain := collect()
	rng := rand.New(rand.NewSource(5))
	runner.Shuffle(rng)
	shuffled := collect()
	if len(plain) != len(shuffled) {
		t.Fatalf("shuffle changed row count: %d vs %d", len(plain), len(shuffled))
	}
	// Same multiset of rows…
	seen := make(map[int64]int)
	for _, s := range plain {
		seen[s]++
	}
	for _, s := range shuffled {
		seen[s]--
	}
	for sid, c := range seen {
		if c != 0 {
			t.Fatalf("sid %d appears %+d times after shuffle", sid, c)
		}
	}
	// …in a different order.
	same := true
	for i := range plain {
		if plain[i] != shuffled[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("shuffle produced identical emission order")
	}
	// Restoring sequential order reproduces the original stream.
	runner.Shuffle(nil)
	restored := collect()
	for i := range plain {
		if plain[i] != restored[i] {
			t.Fatal("Shuffle(nil) did not restore sequential order")
		}
	}
}

func TestShuffleDeterministicPerSeed(t *testing.T) {
	db := openDB(t)
	sp := buildTables(t, db, 400, 1, []int{350}, []int{1})
	sp.BlockPages = 1
	order := func(seed int64) []int64 {
		runner, err := NewRunner(sp)
		if err != nil {
			t.Fatal(err)
		}
		runner.Shuffle(rand.New(rand.NewSource(seed)))
		var sids []int64
		err = runner.Run(Callbacks{
			OnMatch: func(s *storage.Tuple, _ []int) error {
				sids = append(sids, s.Keys[0])
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sids
	}
	a := order(7)
	b := order(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different orders")
		}
	}
}

// snowTable creates a dimension table with nrefs foreign-key columns and
// the given tuples (keys = rid, fks…).
func snowTable(t *testing.T, db *storage.Database, name string, nrefs, width int, keys [][]int64) *storage.Table {
	t.Helper()
	sch := &storage.Schema{Name: name, Keys: []string{"rid"}}
	for i := 0; i < nrefs; i++ {
		sch.Keys = append(sch.Keys, fmt.Sprintf("fk%d", i))
	}
	for i := 0; i < width; i++ {
		sch.Features = append(sch.Features, fmt.Sprintf("%s_x%d", name, i))
	}
	tbl, err := db.CreateTable(sch)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		feats := make([]float64, width)
		for j := range feats {
			feats[j] = float64(len(name))*1000 + float64(k[0])*10 + float64(j)
		}
		if err := tbl.Append(&storage.Tuple{Keys: k, Features: feats}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestSnowflakeHopsResolvedPerDimensionTuple pins the runner's snowflake
// contract on S → {A → {B → D, C}, E}: the callbacks see a star over the
// direct dimensions A and E (one probe each per fact tuple, whatever the
// depth), every direct dimension's arena row carries its subtree's features
// in preorder, sub-dimension references are resolved once per dimension
// tuple — not per fact tuple — and a dangling sub-reference drops exactly
// the fact tuples that reach it.
func TestSnowflakeHopsResolvedPerDimensionTuple(t *testing.T) {
	db := openDB(t)
	const nS, nA, nB, nC, nD, nE = 600, 12, 5, 4, 3, 7
	var aKeys, bKeys, cKeys, dKeys, eKeys [][]int64
	for i := int64(0); i < nD; i++ {
		dKeys = append(dKeys, []int64{i})
	}
	for i := int64(0); i < nB; i++ {
		bKeys = append(bKeys, []int64{i, i % nD})
	}
	bKeys[4][1] = 99 // B tuple 4 references no D tuple
	for i := int64(0); i < nC; i++ {
		cKeys = append(cKeys, []int64{i})
	}
	for i := int64(0); i < nA; i++ {
		aKeys = append(aKeys, []int64{i, i % nB, (i + 1) % nC})
	}
	for i := int64(0); i < nE; i++ {
		eKeys = append(eKeys, []int64{i})
	}
	a := snowTable(t, db, "A", 2, 2, aKeys)
	b := snowTable(t, db, "BB", 1, 1, bKeys)
	d := snowTable(t, db, "DDD", 0, 3, dKeys)
	c := snowTable(t, db, "CCCC", 0, 0, cKeys) // zero-width: a hop, no features
	e := snowTable(t, db, "EEEEE", 0, 2, eKeys)

	sch := &storage.Schema{Name: "S", Keys: []string{"sid", "fa", "fe"}, Features: []string{"xs"}}
	s, err := db.CreateTable(sch)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 0
	for i := int64(0); i < nS; i++ {
		if err := s.Append(&storage.Tuple{Keys: []int64{i, i % nA, i % nE}, Features: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
		if (i%nA)%nB != 4 { // A tuples 4 and 9 hang off the dangling B tuple
			wantRows++
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sp := &Spec{S: s, Rs: []*storage.Table{a, b, d, c, e}, Parent: []int{-1, 0, 1, 0, -1}, Ref: []int{0, 0, 0, 1, 1}}
	if got, want := sp.DirectWidths(), []int{2 + 1 + 3 + 0, 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("DirectWidths = %v, want %v", got, want)
	}
	r, err := NewRunner(sp)
	if err != nil {
		t.Fatal(err)
	}

	feat := func(name string, rid int64, j int) float64 {
		return float64(len(name))*1000 + float64(rid)*10 + float64(j)
	}
	var dims []Arena
	rows := 0
	pass := func() {
		t.Helper()
		err := r.Run(Callbacks{
			OnBlockStart: func(d []Arena) error { dims = d; return nil },
			OnMatch: func(st *storage.Tuple, pos []int) error {
				rows++
				if len(pos) != 2 {
					t.Fatalf("match carries %d arena rows, want 2: one probe per direct dimension", len(pos))
				}
				ra, rb := st.Keys[1], st.Keys[1]%nB
				want := []float64{
					feat("A", ra, 0), feat("A", ra, 1),
					feat("BB", rb, 0),
					feat("DDD", rb%nD, 0), feat("DDD", rb%nD, 1), feat("DDD", rb%nD, 2),
				}
				if got := dims[0].Row(pos[0]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("sid %d: A tuple with its subtree = %v, want %v", st.Keys[0], got, want)
				}
				want = []float64{feat("EEEEE", st.Keys[2], 0), feat("EEEEE", st.Keys[2], 1)}
				if got := dims[1].Row(pos[1]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("sid %d: E tuple = %v, want %v", st.Keys[0], got, want)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if rows != wantRows {
		t.Fatalf("joined %d fact tuples, want %d (those not reaching the dangling B tuple)", rows, wantRows)
	}
	// Hops are resolved per dimension tuple: the resident tables load once
	// per runner, so a second pass reads R1's pages once plus S's once per
	// block, and nothing resident — no page scales with the hops the 600
	// fact tuples would make.
	io0 := db.IOStats()
	pass()
	if got, want := db.IOStats().Sub(io0).LogicalReads, a.NumPages()+r.NumBlocks()*s.NumPages(); got != want {
		t.Fatalf("second pass read %d pages, want |A| + blocks·|S| = %d", got, want)
	}
	if rows != 2*wantRows {
		t.Fatalf("two passes joined %d fact tuples, want %d", rows, 2*wantRows)
	}

	// The materialized and streamed rows are the same preorder layout.
	streamed := collectStream(t, sp)
	if len(streamed) != wantRows || len(streamed[0].x) != sp.JoinedWidth() {
		t.Fatalf("Stream delivered %d rows of width %d, want %d of %d", len(streamed), len(streamed[0].x), wantRows, sp.JoinedWidth())
	}
}

// NumBlocks returns how many R1 blocks a Run will produce — the count the
// planner prices from statistics (plan.SchemaStats), here from the spec.
func (r *Runner) NumBlocks() int64 {
	r1 := r.spec.Rs[0]
	perPage := int64(r1.Schema().RecordsPerPage())
	tuplesPerBlock := int64(r.spec.blockPages()) * perPage
	n := r1.NumTuples()
	if n == 0 {
		return 0
	}
	return (n + tuplesPerBlock - 1) / tuplesPerBlock
}
