package join

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"factorml/internal/storage"
)

// TestRunnerWarmPassAllocsIndependentOfR1 pins that a warm pass allocates
// nothing per R1 tuple: R1's block is read into the runner's one arena,
// and each R1 tuple's subtree resolves through the resident indexes into
// it, or dangles (every tenth here) at no cost either. Run and RunParallel make the same number of allocations per pass
// whether R1 holds 3 000 or 30 000 tuples (one block each; fact table,
// resident tables and chunk geometry unchanged).
func TestRunnerWarmPassAllocsIndependentOfR1(t *testing.T) {
	type counts struct{ run, par float64 }
	measure := func(nR1 int) counts {
		db := openDB(t)
		var aKeys, bKeys, eKeys, fKeys [][]int64
		for i := int64(0); i < int64(nR1); i++ {
			aKeys = append(aKeys, []int64{i, i % 7})
			if i%10 == 0 {
				aKeys[i][1] = 99 // dangles: the tuple is left out of its block
			}
		}
		for i := int64(0); i < 7; i++ {
			bKeys = append(bKeys, []int64{i})
			fKeys = append(fKeys, []int64{i})
		}
		for i := int64(0); i < 40; i++ {
			eKeys = append(eKeys, []int64{i, i % 7})
		}
		a := snowTable(t, db, "A", 1, 2, aKeys)
		b := snowTable(t, db, "BB", 0, 2, bKeys)
		e := snowTable(t, db, "EEE", 1, 1, eKeys)
		f := snowTable(t, db, "FFFF", 0, 1, fKeys)
		s, err := db.CreateTable(&storage.Schema{Name: "S", Keys: []string{"sid", "fa", "fe"}, Features: []string{"xs"}})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 2000; i++ {
			if err := s.Append(&storage.Tuple{Keys: []int64{i, i % 3000, i % 40}, Features: []float64{float64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		sp := &Spec{S: s, Rs: []*storage.Table{a, b, e, f}, Parent: []int{-1, 0, -1, 2}, Ref: []int{0, 0, 1, 0}, BlockPages: 1000}
		r, err := NewRunner(sp)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumBlocks() != 1 {
			t.Fatalf("|R1| = %d spans %d blocks, want 1", nR1, r.NumBlocks())
		}
		matches := 0
		run := func() {
			err := r.Run(Callbacks{OnMatch: func(*storage.Tuple, []int) error { matches++; return nil }})
			if err != nil {
				t.Fatal(err)
			}
		}
		par := func() {
			err := RunParallel(r, 1, 0, ParallelCallbacks[struct{}]{
				OnMatchChunk: func(_ *struct{}, ms []Match) error { matches += len(ms); return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		run() // the resident load and the block arena
		par()
		if matches != 2*1800 {
			t.Fatalf("two passes joined %d fact tuples, want %d", matches, 2*1800)
		}
		return counts{testing.AllocsPerRun(3, run), testing.AllocsPerRun(3, par)}
	}
	small, large := measure(3000), measure(30000)
	t.Logf("allocations per warm pass: Run %v, RunParallel %v", small.run, small.par)
	if small != large {
		t.Fatalf("a warm pass allocates %+v at |R1| = 3000 but %+v at |R1| = 30000, want the same", small, large)
	}
}

// randomHierarchy builds a random snowflake of depth 1–3 in db: tables of
// 1–8 tuples (R1 21–28) whose sub-keys dangle now and then at every depth, one leaf
// table shared by two positions whenever the hierarchy has two leaves
// besides R1, and a fact table whose keys dangle now and then too.
func randomHierarchy(t *testing.T, db *storage.Database, rng *rand.Rand) *Spec {
	t.Helper()
	depth := 1 + rng.Intn(3)
	var parent, ref, nkids []int
	var build func(p, r, level int)
	build = func(p, r, level int) {
		i := len(parent)
		parent, ref, nkids = append(parent, p), append(ref, r), append(nkids, 0)
		if level < depth {
			for c := range rng.Intn(3) {
				build(i, c, level+1)
				nkids[i]++
			}
		}
	}
	ndirect := 1 + rng.Intn(3)
	for d := range ndirect {
		build(-1, d, 1)
	}
	// Node i's table; the shared leaf takes two positions.
	tableOf := make([]int, len(parent))
	for i := range tableOf {
		tableOf[i] = i
	}
	var leaves []int
	for i := 1; i < len(parent); i++ {
		if nkids[i] == 0 {
			leaves = append(leaves, i)
		}
	}
	if len(leaves) >= 2 {
		tableOf[leaves[1]] = leaves[0]
	}
	// key draws a key into a table of n tuples; one in eight dangles.
	key := func(n int) int64 {
		if rng.Intn(8) == 0 {
			return int64(n)
		}
		return int64(rng.Intn(n))
	}
	size := make([]int, len(parent))
	for i := range size {
		size[i] = 1 + rng.Intn(8)
	}
	size[0] += 20 // R1 holds most fact tuples' partners
	tables := make([]*storage.Table, len(parent))
	for i := range parent {
		if tableOf[i] != i {
			continue
		}
		var kids []int
		for c := i + 1; c < len(parent); c++ {
			if parent[c] == i {
				kids = append(kids, tableOf[c])
			}
		}
		keys := make([][]int64, size[i])
		for k := range keys {
			keys[k] = []int64{int64(k)}
			for _, c := range kids {
				keys[k] = append(keys[k], key(size[c]))
			}
		}
		tables[i] = snowTable(t, db, fmt.Sprintf("D%d", i), len(kids), rng.Intn(3), keys)
	}
	for i, ti := range tableOf {
		tables[i] = tables[ti]
	}
	sch := &storage.Schema{Name: "S", Keys: []string{"sid"}, Features: []string{"xs0", "xs1"}}
	var direct []int
	for i, p := range parent {
		if p == -1 {
			direct = append(direct, i)
			sch.Keys = append(sch.Keys, fmt.Sprintf("fk%d", len(direct)))
		}
	}
	s, err := db.CreateTable(sch)
	if err != nil {
		t.Fatal(err)
	}
	for sid := range int64(60 + rng.Intn(60)) {
		keys := []int64{sid}
		for _, n := range direct {
			keys = append(keys, key(size[n]))
		}
		if err := s.Append(&storage.Tuple{Keys: keys, Features: []float64{float64(sid), -float64(sid)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sp := &Spec{S: s, Rs: tables, Parent: parent, Ref: ref}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestRunnerAgreesWithResolver checks the training join against the
// serving-side resolution on random hierarchies: Run delivers exactly the
// fact tuples Resolver.Resolve accepts over BuildIndexes, in scan order;
// each AppendRow is the fact features followed by every direct key's
// Resolver.Subtree walk; and the first pass reads each distinct resident
// table's pages once.
func TestRunnerAgreesWithResolver(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := openDB(t)
		sp := randomHierarchy(t, db, rng)
		shape := fmt.Sprintf("seed %d, parent %v", seed, sp.Parent)

		idxs, err := sp.Plan().BuildIndexes(nil)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := NewResolver(sp.Parent, sp.Ref, idxs)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		sc := sp.S.NewScanner()
		for sc.Next() {
			st := sc.Tuple()
			if rv.Resolve(st.Keys[1:], nil, nil) != nil {
				continue
			}
			row := slices.Clone(st.Features)
			for j, n := range rv.Direct() {
				ord, _ := idxs[n].Pos(st.Keys[1+j])
				feats := make([]float64, rv.SubtreeWidth(n))
				if err := rv.Subtree(n, ord, feats, nil); err != nil {
					t.Fatalf("%s: Resolve accepted sid %d but Subtree fails: %v", shape, st.Keys[0], err)
				}
				row = append(row, feats...)
			}
			want = append(want, fmt.Sprint(st.Keys[0], row))
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}

		r, err := NewRunner(sp)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		var x []float64
		io0 := db.IOStats()
		err = r.Run(Callbacks{OnMatch: func(st *storage.Tuple, pos []int) error {
			x = r.AppendRow(x[:0], st, pos)
			got = append(got, fmt.Sprint(st.Keys[0], x))
			return nil
		}})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the runner joined\n%v\nthe resolver accepts\n%v", shape, got, want)
		}
		pages := sp.Rs[0].NumPages() + r.NumBlocks()*sp.S.NumPages()
		pinned := map[string]bool{}
		for _, tbl := range sp.Rs[1:] {
			if name := tbl.Schema().Name; !pinned[name] {
				pinned[name] = true
				pages += tbl.NumPages()
			}
		}
		if got := db.IOStats().Sub(io0).LogicalReads; got != pages {
			t.Fatalf("%s: first pass read %d pages, want |R1| + blocks·|S| + each distinct resident table once = %d", shape, got, pages)
		}
	}
}

// TestMaterializeDropsTableOnError pins that a join failing after T is
// created leaves no T behind — neither in the database nor, after a
// reopen, in its catalog — so the next materialization under the name
// fails with the join's error again, not "already exists".
func TestMaterializeDropsTableOnError(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := buildTables(t, db, 2000, 1, []int{20}, []int{1})
	// Corrupt the record count of S's first page.
	f, err := os.OpenFile(sp.S.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0x7f}, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for try := range 2 {
		_, _, err := Materialize(db, sp, "T")
		if err == nil || !strings.Contains(err.Error(), "page 0") {
			t.Fatalf("materialization %d: err = %v, want S's page 0 error", try+1, err)
		}
	}
	if slices.Contains(db.TableNames(), "T") {
		t.Fatalf("tables %v still hold T", db.TableNames())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if slices.Contains(db.TableNames(), "T") {
		t.Fatalf("after a reopen the catalog lists %v, T included", db.TableNames())
	}
}
