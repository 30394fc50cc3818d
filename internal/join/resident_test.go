package join

import (
	"fmt"
	"strings"
	"testing"

	"factorml/internal/storage"
)

func TestResidentIndex(t *testing.T) {
	db, err := storage.Open(t.TempDir(), storage.Options{PoolPages: -1})
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
	db, err := storage.Open(t.TempDir(), storage.Options{PoolPages: -1})
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
	db, err := storage.Open(t.TempDir(), storage.Options{PoolPages: -1})
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

	old, _ := ix.Lookup(1)
	isNew, err := ix.Upsert(1, nil, []float64{7, 8})
	if err != nil || isNew {
		t.Fatalf("Upsert(existing) = new=%v err=%v", isNew, err)
	}
	cur, _ := ix.Lookup(1)
	if cur[0] != 7 || cur[1] != 8 {
		t.Fatalf("Lookup after update = %v", cur)
	}
	// Copy-on-write contract: the previously returned slice is untouched
	// and the replacement is a distinct slice — slice identity is the
	// freshness token the serving caches rely on.
	if old[0] != 1 || old[1] != 0 {
		t.Fatalf("old slice mutated: %v", old)
	}
	if &old[0] == &cur[0] {
		t.Fatal("Upsert reused the old backing slice")
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
	if pk, f := ix.At(3); pk != 99 || f[1] != 2 {
		t.Fatalf("At(3) = %d, %v", pk, f)
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
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
