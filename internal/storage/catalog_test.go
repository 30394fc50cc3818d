package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCatalogReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := testSchema("orders", 2, 3, true)
	tbl, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	per := s.RecordsPerPage()
	n := per + 7 // one full page plus a partial tail
	for i := 0; i < n; i++ {
		err := tbl.Append(&Tuple{
			Keys:     []int64{int64(i), int64(i % 3)},
			Features: []float64{float64(i), 2, 3},
			Target:   float64(i) / 2,
		})
		if err != nil {
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
	tbl2, err := db2.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NumTuples() != int64(n) {
		t.Fatalf("reopened NumTuples = %d, want %d", tbl2.NumTuples(), n)
	}
	if tbl2.Schema().String() != s.String() {
		t.Fatalf("schema changed across reopen: %v vs %v", tbl2.Schema(), s)
	}
	var tp Tuple
	if err := getRow(tbl2, int64(n-1), &tp); err != nil {
		t.Fatal(err)
	}
	if tp.Keys[0] != int64(n-1) || tp.Target != float64(n-1)/2 {
		t.Fatalf("last tuple wrong after reopen: %+v", tp)
	}

	// Appends must continue in the partial tail without corrupting data.
	if err := tbl2.Append(&Tuple{Keys: []int64{900, 0}, Features: []float64{9, 9, 9}, Target: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := getRow(tbl2, int64(n), &tp); err != nil {
		t.Fatal(err)
	}
	if tp.Keys[0] != 900 {
		t.Fatalf("appended tuple wrong: %+v", tp)
	}
	sc := tbl2.NewScanner()
	count := 0
	for sc.Next() {
		count++
	}
	if count != n+1 {
		t.Fatalf("scan after reopen+append: %d rows, want %d", count, n+1)
	}
}

func TestCatalogReopenExactPageBoundary(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := testSchema("r", 1, 1, false)
	tbl, _ := db.CreateTable(s)
	per := s.RecordsPerPage()
	for i := 0; i < 2*per; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{int64(i)}, Features: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("r")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NumTuples() != int64(2*per) {
		t.Fatalf("NumTuples = %d, want %d", tbl2.NumTuples(), 2*per)
	}
	if tbl2.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", tbl2.NumPages())
	}
}

func TestCatalogDropPersisted(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	if _, err := db.CreateTable(testSchema("a", 1, 1, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(testSchema("b", 1, 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Table("a"); err == nil {
		t.Fatal("dropped table resurrected after reopen")
	}
	if _, err := db2.Table("b"); err != nil {
		t.Fatal("surviving table lost after reopen")
	}
}

func TestCatalogCorruptFileRejected(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	if _, err := db.CreateTable(testSchema("x", 1, 1, false)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Truncate the heap file to a torn size.
	if err := writeFileSize(filepath.Join(dir, "x.tbl"), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("torn table file should fail to open")
	}
}

// writeFileSize truncates/extends a file to an exact size (test helper).
func writeFileSize(path string, size int64) error {
	return os.Truncate(path, size)
}

// TestCorruptPageRecordCountRejected: a page's record count is read from
// disk. A tail page claiming more records than a page fits fails Open, and
// a full page claiming anything but a full page fails the scan, the point
// read and the update that reach it. Each error names the table and the
// page; none is a panic.
func TestCorruptPageRecordCountRejected(t *testing.T) {
	s := testSchema("heap", 1, 1, false)
	per := s.RecordsPerPage()
	build := func(t *testing.T, rows int) string {
		dir := t.TempDir()
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tbl.Append(&Tuple{Keys: []int64{int64(i)}, Features: []float64{1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	setCount := func(t *testing.T, dir string, pageNo int64, n uint16) {
		f, err := os.OpenFile(filepath.Join(dir, "heap.tbl"), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{byte(n), byte(n >> 8)}, pageNo*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	names := func(t *testing.T, what string, err error, page string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `"heap"`) || !strings.Contains(err.Error(), page) {
			t.Fatalf("%s: err = %v, want one naming table \"heap\" and %s", what, err, page)
		}
	}

	t.Run("tail", func(t *testing.T) {
		dir := build(t, 5)
		setCount(t, dir, 0, 0xFFFF)
		db, err := Open(dir)
		if err == nil {
			db.Close()
		}
		names(t, "Open", err, "page 0")
	})

	t.Run("full", func(t *testing.T) {
		dir := build(t, 2*per+3)
		setCount(t, dir, 0, 0xFFFF)
		setCount(t, dir, 1, uint16(per-1))
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tbl, err := db.Table("heap")
		if err != nil {
			t.Fatal(err)
		}
		sc := tbl.NewScanner()
		for sc.Next() {
		}
		names(t, "scan", sc.Err(), "page 0")
		var tp Tuple
		names(t, "SeekRow", getRow(tbl, 0, &tp), "page 0")
		names(t, "UpdateAt", tbl.UpdateAt(int64(per), &Tuple{Keys: []int64{int64(per)}, Features: []float64{2}}), "page 1")
		sc = tbl.NewScanner()
		if err := sc.SeekRow(int64(2 * per)); err != nil {
			t.Fatal(err)
		}
		n := 0
		for sc.Next() {
			n++
		}
		if sc.Err() != nil || n != 3 {
			t.Fatalf("the intact tail page scanned %d rows (err %v), want 3", n, sc.Err())
		}
	})
}
