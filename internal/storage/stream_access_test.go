package storage

import (
	"reflect"
	"testing"
)

func streamTestTable(t *testing.T, n int64) *Table {
	t.Helper()
	db, err := Open(t.TempDir(), Options{PoolPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable(&Schema{Name: "t", Keys: []string{"id"}, Features: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{i}, Features: []float64{float64(i), 2 * float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestNewScannerAt(t *testing.T) {
	// Enough rows to span several pages, plus a buffered (unflushed) tail.
	const n = 1000
	tbl := streamTestTable(t, n)

	for _, start := range []int64{0, 1, 499, 997, n - 1, n} {
		sc, err := tbl.NewScannerAt(start)
		if err != nil {
			t.Fatalf("NewScannerAt(%d): %v", start, err)
		}
		want := start
		for sc.Next() {
			tp := sc.Tuple()
			if tp.PrimaryKey() != want || tp.Features[0] != float64(want) {
				t.Fatalf("scan from %d: got key %d features %v, want key %d", start, tp.PrimaryKey(), tp.Features, want)
			}
			want++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if want != n {
			t.Fatalf("scan from %d served %d rows, want %d", start, want-start, n-start)
		}
	}
	if _, err := tbl.NewScannerAt(-1); err == nil {
		t.Fatal("NewScannerAt(-1) accepted")
	}
	if _, err := tbl.NewScannerAt(n + 1); err == nil {
		t.Fatal("NewScannerAt(past end) accepted")
	}
}

func TestUpdateAt(t *testing.T) {
	const n = 1000 // rows on full pages and in the tail
	tbl := streamTestTable(t, n)

	for _, row := range []int64{0, 3, 700, n - 1} {
		var old Tuple
		if err := tbl.Get(row, &old); err != nil {
			t.Fatal(err)
		}
		upd := &Tuple{Keys: []int64{old.PrimaryKey()}, Features: []float64{-1, -2}}
		if err := tbl.UpdateAt(row, upd); err != nil {
			t.Fatalf("UpdateAt(%d): %v", row, err)
		}
		var got Tuple
		if err := tbl.Get(row, &got); err != nil {
			t.Fatal(err)
		}
		if got.Features[0] != -1 || got.Features[1] != -2 {
			t.Fatalf("row %d after update = %v", row, got.Features)
		}
	}
	// Neighbors are untouched.
	var neighbor Tuple
	if err := tbl.Get(4, &neighbor); err != nil {
		t.Fatal(err)
	}
	if neighbor.Features[0] != 4 {
		t.Fatalf("row 4 corrupted by update of row 3: %v", neighbor.Features)
	}
	// A full scan observes the updates (pool caches were invalidated).
	sc := tbl.NewScanner()
	count := 0
	for sc.Next() {
		if sc.Tuple().PrimaryKey() == 700 && sc.Tuple().Features[0] != -1 {
			t.Fatalf("scan saw stale row 700: %v", sc.Tuple().Features)
		}
		count++
	}
	if sc.Err() != nil || count != n {
		t.Fatalf("scan after updates: n=%d err=%v", count, sc.Err())
	}

	// Primary keys are immutable; range is checked.
	if err := tbl.UpdateAt(0, &Tuple{Keys: []int64{42}, Features: []float64{0, 0}}); err == nil {
		t.Fatal("UpdateAt accepted a primary-key change")
	}
	if err := tbl.UpdateAt(n, &Tuple{Keys: []int64{int64(n)}, Features: []float64{0, 0}}); err == nil {
		t.Fatal("UpdateAt accepted an out-of-range row")
	}
}

// An update of a row on a full page reads that page once, straight from
// the file, and counts that one read; the pool only loses its copy of the
// rewritten page, if it held one.
func TestUpdateAtReadsPageOnce(t *testing.T) {
	db := openTestDB(t, 1)
	tbl := fillPages(t, db, "r", 3, 0)
	per := int64(tbl.Schema().RecordsPerPage())
	var tp Tuple
	if err := tbl.Get(0, &tp); err != nil { // caches page 0
		t.Fatal(err)
	}
	for _, c := range []struct {
		row    int64
		cached []int64
	}{
		{2*per + 5, []int64{0}}, // another page: page 0 stays cached
		{5, nil},                // the cached page itself: its copy is dropped
	} {
		db.Pool().ResetStats()
		if err := tbl.UpdateAt(c.row, &Tuple{Keys: []int64{c.row}, Features: []float64{-1}}); err != nil {
			t.Fatal(err)
		}
		if got, want := db.Pool().Stats(), (IOStats{LogicalReads: 1, PhysicalReads: 1, PageWrites: 1}); got != want {
			t.Errorf("UpdateAt(%d) counted %v, want %v", c.row, got, want)
		}
		if got := cachedPages(db); !reflect.DeepEqual(got, c.cached) {
			t.Errorf("after UpdateAt(%d) the pool holds pages %v, want %v", c.row, got, c.cached)
		}
	}
	for _, row := range []int64{5, 2*per + 5} {
		if err := tbl.Get(row, &tp); err != nil || tp.Features[0] != -1 {
			t.Fatalf("row %d after update: %v (err %v)", row, tp.Features, err)
		}
	}
}
