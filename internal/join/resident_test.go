package join

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"factorml/internal/storage"
)

func TestResidentIndex(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(&storage.Schema{
		Name: "r", Keys: []string{"rid"}, Features: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := tbl.Append(&storage.Tuple{Keys: []int64{i * 3}, Features: []float64{float64(i), -float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}

	ix, err := BuildResidentIndex(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 100 || ix.Width() != 2 || ix.Name() != "r" {
		t.Fatalf("index shape: len=%d width=%d name=%q", ix.Len(), ix.Width(), ix.Name())
	}
	f, ok := ix.Lookup(42 * 3)
	if !ok || f[0] != 42 || f[1] != -42 {
		t.Fatalf("Lookup(126) = %v, %v", f, ok)
	}
	if _, ok := ix.Lookup(1); ok {
		t.Fatal("Lookup(1) found a missing key")
	}

	// Concurrent probing is safe (exercised fully under -race).
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := int64(0); i < 100; i++ {
				if _, ok := ix.Lookup(i * 3); !ok {
					t.Error("missing key during concurrent probe")
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

func TestResidentIndexDuplicateKey(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(&storage.Schema{Name: "items", Keys: []string{"rid"}, Features: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []int64{1, 2, 1} {
		if err := tbl.Append(&storage.Tuple{Keys: []int64{k}, Features: []float64{float64(10 * i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = BuildResidentIndex(tbl)
	if err == nil {
		t.Fatal("BuildResidentIndex accepted a duplicate primary key")
	}
	// The error must name the table and give both conflicting tuples'
	// context so operators can find the offending rows.
	want := `join: duplicate primary key 1 in table "items": tuple at row 0 has features [0], tuple at row 2 has features [20]`
	if err.Error() != want {
		t.Fatalf("duplicate-key error = %q, want %q", err, want)
	}
}

func TestResidentIndexUpsert(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(&storage.Schema{Name: "r", Keys: []string{"rid"}, Features: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := tbl.Append(&storage.Tuple{Keys: []int64{i}, Features: []float64{float64(i), 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	ix, err := BuildResidentIndex(tbl)
	if err != nil {
		t.Fatal(err)
	}

	v0, v2 := ix.Row(0, nil, nil), ix.Row(2, nil, nil)
	isNew, err := ix.Upsert(1, nil, []float64{7, 8})
	if err != nil || isNew {
		t.Fatalf("Upsert(existing) = new=%v err=%v", isNew, err)
	}
	cur, _ := ix.Lookup(1)
	if cur[0] != 7 || cur[1] != 8 {
		t.Fatalf("Lookup after update = %v", cur)
	}
	// Versions are the freshness token the serving caches rely on: the
	// updated ordinal's moves, an untouched one's does not, and Row returns
	// the features with the version they belong to.
	row := make([]float64, 2)
	if v := ix.Row(1, row, nil); v != 1 || row[0] != 7 || row[1] != 8 {
		t.Fatalf("Row(1) = %v at version %d, want [7 8] at 1", row, v)
	}
	if ix.Row(0, nil, nil) != v0 || ix.Row(2, nil, nil) != v2 {
		t.Fatalf("untouched versions moved: %d→%d, %d→%d", v0, ix.Row(0, nil, nil), v2, ix.Row(2, nil, nil))
	}
	if _, err := ix.Upsert(1, nil, []float64{9, 9}); err != nil || ix.Row(1, nil, nil) != 2 {
		t.Fatalf("second update: version %d, err %v; want 2", ix.Row(1, nil, nil), err)
	}
	// Dense positions are stable across updates; new keys append.
	if p, ok := ix.Pos(1); !ok || p != 1 {
		t.Fatalf("Pos(1) = %d, %v; want 1", p, ok)
	}
	isNew, err = ix.Upsert(99, nil, []float64{1, 2})
	if err != nil || !isNew {
		t.Fatalf("Upsert(new) = new=%v err=%v", isNew, err)
	}
	if p, ok := ix.Pos(99); !ok || p != 3 {
		t.Fatalf("Pos(99) = %d, %v; want 3", p, ok)
	}
	if pk, f := ix.At(3); pk != 99 || f[1] != 2 || ix.Row(3, nil, nil) != 0 {
		t.Fatalf("At(3) = %d, %v at version %d", pk, f, ix.Row(3, nil, nil))
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	// Ordinals are stable through the switch to a key map.
	for pk, want := range map[int64]int{0: 0, 1: 1, 2: 2, 3: -1} {
		if p, ok := ix.Pos(pk); ok != (want >= 0) || (ok && p != want) {
			t.Fatalf("after the sparse insert Pos(%d) = %d, %v; want %d", pk, p, ok, want)
		}
	}
	if _, err := ix.Upsert(5, nil, []float64{1}); err == nil {
		t.Fatal("Upsert accepted a wrong-width vector")
	}
}

// TestResolverHops pins the one place a hierarchy hop is made, on
// S → {A → {B → D, C}, E}: Resolve finds every node's key and dense index
// through Hop, a hop can be retaken from a tuple's position alone (what the
// streaming statistics do per group), it follows sub-keys as they are
// pinned now, and both ways out name the table and the key.
func TestResolverHops(t *testing.T) {
	db := openDB(t)
	a := snowTable(t, db, "A", 2, 2, [][]int64{{10, 0, 1}, {11, 1, 0}})
	b := snowTable(t, db, "BB", 1, 1, [][]int64{{0, 7}, {1, 99}}) // B tuple 1 references no D tuple
	d := snowTable(t, db, "DDD", 0, 3, [][]int64{{7}, {8}})
	c := snowTable(t, db, "CCCC", 0, 0, [][]int64{{0}, {1}})
	e := snowTable(t, db, "EEEEE", 0, 2, [][]int64{{5}})
	pl := &DimPlan{Tables: []*storage.Table{a, b, d, c, e}, Parent: []int{-1, 0, 1, 0, -1}, Ref: []int{0, 0, 0, 1, 1}}
	idxs, err := pl.BuildIndexes(nil)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := NewResolver(pl.Parent, pl.Ref, idxs)
	if err != nil || rv.NumDirect() != 2 {
		t.Fatalf("NewResolver: %d direct nodes, err %v", rv.NumDirect(), err)
	}

	pks, pos := make([]int64, 5), make([]int, 5)
	if err := rv.Resolve([]int64{10, 5}, pks, pos); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pks, pos) != "[10 0 7 1 5] [0 0 0 1 0]" {
		t.Fatalf("Resolve = keys %v at %v", pks, pos)
	}
	// The same hop from the parent's position alone, no fact row in sight.
	again := []int{0, 0, -1, -1, -1}
	if pk, err := rv.Hop(2, nil, again); err != nil || pk != 7 || again[2] != 0 {
		t.Fatalf("Hop(2) = key %d at %d, err %v", pk, again[2], err)
	}
	// A repointed sub-key shows in the next hop.
	if _, err := idxs[1].Upsert(0, []int64{8}, []float64{0}); err != nil {
		t.Fatal(err)
	}
	if pk, err := rv.Hop(2, nil, again); err != nil || pk != 8 || again[2] != 1 {
		t.Fatalf("Hop(2) after the repoint = key %d at %d, err %v", pk, again[2], err)
	}

	if err := rv.Resolve([]int64{11, 5}, nil, nil); err == nil || err.Error() != `unknown foreign key 99 for dimension table "DDD"` {
		t.Fatalf("dangling sub-key: %v", err)
	}
	if err := rv.Resolve([]int64{12, 5}, nil, nil); err == nil || err.Error() != `unknown foreign key 12 for dimension table "A"` {
		t.Fatalf("dangling direct key: %v", err)
	}
	if err := rv.Resolve([]int64{10}, nil, nil); err == nil {
		t.Fatal("Resolve accepted one key for two direct dimensions")
	}
	short := &Resolver{Parent: pl.Parent, Ref: []int{0, 0, 3, 1, 1}, Idxs: idxs}
	if _, err := short.Hop(2, nil, []int{0, 0, 0, 0, 0}); err == nil || !strings.Contains(err.Error(), `"BB" has 1 sub-keys, resolver wants key 3`) {
		t.Fatalf("sub-key out of range: %v", err)
	}
}

// TestResidentIndexRowIsConsistent hammers Row readers against Upsert
// writers of the same ordinals: the writer of ordinal i installs (v, v, …)
// as version v, so every read must return features that all equal the
// version it came with. Run under -race it also pins the index's locking.
func TestResidentIndexRowIsConsistent(t *testing.T) {
	const n, width, writes = 4, 8, 2000
	ix := &ResidentIndex{name: "r", width: width}
	for i := 0; i < n; i++ {
		if _, err := ix.Upsert(int64(i), nil, make([]float64, width)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { // the one writer of ordinal i
			defer wg.Done()
			feats := make([]float64, width)
			for v := 1; v <= writes; v++ {
				for c := range feats {
					feats[c] = float64(v)
				}
				if _, err := ix.Upsert(int64(i), nil, feats); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			row := make([]float64, width)
			for r := 0; r < writes; r++ {
				i := (g + r) % n
				v := ix.Row(i, row, nil)
				for c, x := range row {
					if x != float64(v) {
						t.Errorf("Row(%d) at version %d has feature %d = %v", i, v, c, x)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if v := ix.Row(i, nil, nil); v != writes {
			t.Fatalf("ordinal %d ends at version %d, want %d", i, v, writes)
		}
	}
}

// FuzzResidentIndex replays an upsert/lookup sequence against a map
// reference: after every operation Len, Pos, At, Row and SubAt
// agree with it, and the index holds a key map exactly once some insert's
// key was not the next ordinal. Each operation is two bytes: an opcode
// and a key (key−8, so negative keys occur).
func FuzzResidentIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})              // dense inserts, one update
	f.Add([]byte{0, 0, 1, 200, 0, 0, 2, 3, 1, 208})    // a sparse key mid-stream
	f.Add([]byte{1, 7, 1, 8, 2, 8, 1, 9, 0, 0, 2, 30}) // sparse from the first insert
	f.Fuzz(func(t *testing.T, ops []byte) {
		type tuple struct {
			ord, ver int
			x        float64
		}
		const width, nrefs = 2, 1
		ix := &ResidentIndex{name: "f", width: width, nrefs: nrefs}
		ref := map[int64]*tuple{}
		var keys []int64 // ordinal -> key
		sparse := false
		row, sub := make([]float64, width), make([]int64, nrefs)
		for s := 0; s+1 < len(ops) && s < 128; s += 2 {
			key := int64(ops[s+1]) - 8
			x := float64(s)
			switch ops[s] % 3 {
			case 0: // insert at the next ordinal (dense when no map yet)
				key = int64(len(keys))
				if _, ok := ref[key]; ok {
					continue
				}
				fallthrough
			case 1: // upsert key
				isNew, err := ix.Upsert(key, []int64{key + 1}, []float64{x, -x})
				if err != nil {
					t.Fatal(err)
				}
				tp, had := ref[key]
				if isNew == had {
					t.Fatalf("op %d: Upsert(%d) isNew=%v, reference holds it: %v", s, key, isNew, had)
				}
				if had {
					tp.ver++
					tp.x = x
				} else {
					sparse = sparse || key != int64(len(keys))
					ref[key] = &tuple{ord: len(keys), x: x}
					keys = append(keys, key)
				}
			default: // lookup only
			}
			if got, want := ix.pos != nil, sparse; got != want {
				t.Fatalf("op %d: index holds a key map = %v, want %v", s, got, want)
			}
			if ix.Len() != len(keys) {
				t.Fatalf("op %d: Len = %d, want %d", s, ix.Len(), len(keys))
			}
			tp, ok := ref[key]
			p, got := ix.Pos(key)
			if got != ok || (ok && p != tp.ord) {
				t.Fatalf("op %d: Pos(%d) = %d, %v; reference %v", s, key, p, got, tp)
			}
			if f, got := ix.Lookup(key); got != ok || (ok && f[0] != tp.x) {
				t.Fatalf("op %d: Lookup(%d) = %v, %v; reference %v", s, key, f, got, tp)
			}
			for ord, k := range keys {
				tp := ref[k]
				pk, view := ix.At(ord)
				v := ix.Row(ord, row, sub)
				if pk != k || view[0] != tp.x || row[0] != tp.x || row[1] != -tp.x || sub[0] != k+1 ||
					int(v) != tp.ver || int(ix.Row(ord, nil, nil)) != tp.ver || ix.SubAt(ord, 0) != k+1 {
					t.Fatalf("op %d: ordinal %d reads key %d, %v / %v at version %d (sub %d / %d); reference key %d, %+v",
						s, ord, pk, view, row, v, sub[0], ix.SubAt(ord, 0), k, *tp)
				}
			}
		}
	})
}

// TestResolverSubtree pins the subtree walk on S → {A → {B → D, C}, E}:
// where each subtree ends, its width, the features it copies (preorder)
// and the version vector it reads, that a repointed sub-key shows in the
// next walk through the parent's version, the dangling-key error, the
// resolver's shape check, and that a walk allocates nothing.
func TestResolverSubtree(t *testing.T) {
	db := openDB(t)
	a := snowTable(t, db, "A", 2, 2, [][]int64{{10, 0, 1}, {11, 1, 0}})
	b := snowTable(t, db, "BB", 1, 1, [][]int64{{0, 7}, {1, 99}}) // B tuple 1 references no D tuple
	d := snowTable(t, db, "DDD", 0, 3, [][]int64{{7}, {8}})
	c := snowTable(t, db, "CCCC", 0, 0, [][]int64{{0}, {1}})
	e := snowTable(t, db, "EEEEE", 0, 2, [][]int64{{5}})
	pl := &DimPlan{Tables: []*storage.Table{a, b, d, c, e}, Parent: []int{-1, 0, 1, 0, -1}, Ref: []int{0, 0, 0, 1, 1}}
	idxs, err := pl.BuildIndexes(nil)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := NewResolver(pl.Parent, pl.Ref, idxs)
	if err != nil {
		t.Fatal(err)
	}
	var ends, widths []int
	for i := range idxs {
		ends = append(ends, rv.SubtreeEnd(i))
		widths = append(widths, rv.SubtreeWidth(i))
	}
	if got := fmt.Sprint(rv.Direct(), ends, widths); got != "[0 4] [4 3 3 4 5] [6 4 3 0 2]" {
		t.Fatalf("direct nodes, subtree ends and widths = %s", got)
	}

	feats, vers := make([]float64, 6), make([]uint32, 4)
	if err := rv.Subtree(0, 0, feats, vers); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(feats, vers); got != "[1100 1101 2000 3070 3071 3072] [0 0 0 0]" {
		t.Fatalf("Subtree(A, 0) = %s", got)
	}
	// Repoint B 0 from D 7 to D 8, both at version 0: the vector moves
	// through B's version, the features through the new hop.
	if _, err := idxs[1].Upsert(0, []int64{8}, []float64{2000}); err != nil {
		t.Fatal(err)
	}
	if err := rv.Subtree(0, 0, feats, vers); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(feats, vers); got != "[1100 1101 2000 3080 3081 3082] [0 1 0 0]" {
		t.Fatalf("Subtree(A, 0) after the repoint = %s", got)
	}
	// Either output may be nil; a leaf subtree is its one tuple.
	if err := rv.Subtree(4, 0, nil, vers[:1]); err != nil || vers[0] != 0 {
		t.Fatalf("Subtree(E, 0) = version %d, err %v", vers[0], err)
	}
	if err := rv.Subtree(0, 1, nil, nil); err == nil || err.Error() != `unknown foreign key 99 for dimension table "DDD"` {
		t.Fatalf("dangling sub-key: %v", err)
	}
	if _, err := NewResolver(pl.Parent, []int{0, 0, 3, 1, 1}, idxs); err == nil || !strings.Contains(err.Error(), `"BB" has 1 sub-keys, resolver node 2 wants key 3`) {
		t.Fatalf("NewResolver accepted a sub-key out of range: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = rv.Subtree(0, 0, feats, vers) }); allocs != 0 {
		t.Fatalf("a subtree walk allocates %.0f times", allocs)
	}
}

// TestSubtreeVersionVectorNamesOneValue races walks against a writer that
// repoints a parent between two children of equal version, writing the
// child's key as the parent's feature: every walk must read the child its
// parent's features name, and each version vector must name one feature
// vector. A walk that read the sub-keys apart from the parent's version
// could pair a repointed parent with its old child under a vector a
// consistent walk later reproduces. Run under -race it also pins the
// walk's locking.
func TestSubtreeVersionVectorNamesOneValue(t *testing.T) {
	const writes = 20000
	parent := &ResidentIndex{name: "P", width: 1, nrefs: 1}
	child := &ResidentIndex{name: "C", width: 1}
	for k := int64(0); k < 2; k++ {
		if _, err := child.Upsert(k, nil, []float64{100 * float64(k+1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := parent.Upsert(0, []int64{0}, []float64{0}); err != nil {
		t.Fatal(err)
	}
	rv, err := NewResolver([]int{-1, 0}, []int{0, 0}, []*ResidentIndex{parent, child})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= writes; v++ {
			k := int64(v % 2)
			if _, err := parent.Upsert(0, []int64{k}, []float64{float64(k)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	named := make([][2]float64, writes+1) // version of P -> the features read with it
	var mu sync.Mutex
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feats, vers := make([]float64, 2), make([]uint32, 2)
			for r := 0; r < writes; r++ {
				if err := rv.Subtree(0, 0, feats, vers); err != nil {
					t.Error(err)
					return
				}
				if feats[1] != 100*(feats[0]+1) || vers[1] != 0 {
					t.Errorf("walk read parent %v with child %v at versions %v", feats[0], feats[1], vers)
					return
				}
				mu.Lock()
				seen := named[vers[0]]
				if seen == [2]float64{} {
					named[vers[0]] = [2]float64{feats[0], feats[1]}
				} else if seen != [2]float64{feats[0], feats[1]} {
					t.Errorf("version vector %v names %v and %v", vers, seen, feats)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
