package storage

import (
	"testing"
)

// statsTestSchema is a fact-like relation: sid plus two foreign keys.
func statsTestSchema(name string) *Schema {
	return &Schema{
		Name:     name,
		Keys:     []string{"sid", "fk1", "fk2"},
		Features: []string{"a", "b", "c"},
	}
}

func TestTableStatsCollectedAtAppend(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(statsTestSchema("facts"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		tp := &Tuple{Keys: []int64{i, i % 7, i % 3}, Features: []float64{1, 2, 3}}
		if err := tbl.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tbl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 100 || s.Width != 3 {
		t.Fatalf("Stats = %+v, want Rows=100 Width=3", s)
	}
	if len(s.FKDistinct) != 2 || s.FKDistinct[0] != 7 || s.FKDistinct[1] != 3 {
		t.Fatalf("FKDistinct = %v, want [7 3]", s.FKDistinct)
	}
	if s.Pages < 1 {
		t.Fatalf("Pages = %d, want >= 1", s.Pages)
	}
}

func TestTableStatsPersistAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(statsTestSchema("facts"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{i, i % 5, i % 2}, Features: []float64{0, 0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil { // persists stats into the catalog
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: statistics must be served from the catalog without a scan.
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("facts")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.loadedStats == nil {
		t.Fatal("reopened table has no catalog statistics")
	}
	s, err := tbl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 50 || s.FKDistinct[0] != 5 || s.FKDistinct[1] != 2 {
		t.Fatalf("reopened Stats = %+v, want Rows=50 FKDistinct=[5 2]", s)
	}

	// First write after reopening hydrates the distinct sets from the heap
	// and keeps maintaining them incrementally.
	if err := tbl2.Append(&Tuple{Keys: []int64{50, 40, 2}, Features: []float64{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	s, err = tbl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 51 || s.FKDistinct[0] != 6 || s.FKDistinct[1] != 3 {
		t.Fatalf("post-append Stats = %+v, want Rows=51 FKDistinct=[6 3]", s)
	}
}

func TestTableStatsStalePersistedCopyRescans(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(statsTestSchema("facts"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{i, i % 4, 0}, Features: []float64{0, 0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("facts")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a pre-planner catalog: no persisted statistics at all.
	tbl2.loadedStats = nil
	s, err := tbl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 10 || s.FKDistinct[0] != 4 || s.FKDistinct[1] != 1 {
		t.Fatalf("rescanned Stats = %+v, want Rows=10 FKDistinct=[4 1]", s)
	}
}

func TestTableStatsUpdateAtCountsNewKey(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(statsTestSchema("facts"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{i, 0, 0}, Features: []float64{0, 0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.UpdateAt(1, &Tuple{Keys: []int64{1, 9, 0}, Features: []float64{1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	s, err := tbl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The new key is counted; the old one may linger (documented upper
	// bound), so distinct ∈ {2}.
	if s.FKDistinct[0] != 2 {
		t.Fatalf("FKDistinct[0] = %d, want 2 (0 and 9)", s.FKDistinct[0])
	}
}
