package storage

import (
	"encoding/json"
	"fmt"
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

// TestTableNameCannotEscapeDir: a table name follows the blob name rule,
// so neither CreateTable nor a catalog entry can reach a file outside the
// database directory.
func TestTableNameCannotEscapeDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"../escaped", "a/b", "..", ".hidden", "a b", "", string(make([]byte, 200))} {
		if _, err := db.CreateTable(testSchema(bad, 1, 1, false)); err == nil {
			t.Errorf("CreateTable(%q) accepted an invalid name", bad)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "escaped.tbl")); !os.IsNotExist(err) {
		t.Fatalf("CreateTable wrote outside the database directory: %v", err)
	}
	for _, good := range []string{"synth_S", "x.y-z", "R1"} {
		if _, err := db.CreateTable(testSchema(good, 1, 1, false)); err != nil {
			t.Errorf("CreateTable(%q): %v", good, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A catalog entry naming a file outside the directory fails Open, even
	// where that file exists.
	if err := os.WriteFile(filepath.Join(root, "outside.tbl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	catalog := `[{"name":"../outside","keys":["k0"],"features":["f0"],"has_target":false}]`
	if err := os.WriteFile(filepath.Join(dir, catalogFile), []byte(catalog), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(dir); err == nil {
		db.Close()
		t.Fatal("Open attached a table file outside the database directory")
	}
}

// FuzzCatalog feeds arbitrary bytes as the catalog file of a directory
// holding one valid table file (two full pages and a tail). Open either
// fails or gives a database in which every table scans exactly NumTuples
// rows — or stops on a page whose record count disagrees with the
// catalog's schema, with an error naming the table (Open does not read
// full pages; see TestCorruptPageRecordCountRejected). Nothing is created
// outside the directory, and a catalog listing a table twice fails.
func FuzzCatalog(f *testing.F) {
	src := f.TempDir()
	db, err := Open(src)
	if err != nil {
		f.Fatal(err)
	}
	s := testSchema("t", 2, 2, true)
	tbl, err := db.CreateTable(s)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2*s.RecordsPerPage()+5; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{int64(i), 7}, Features: []float64{1, 2}, Target: 3}); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	heap, err := os.ReadFile(filepath.Join(src, "t.tbl"))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(src, catalogFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`[{"name":"t","keys":["k0","k1"],"features":["f0","f1"],"has_target":true},{"name":"t","keys":["k0"],"features":["f0"],"has_target":false}]`))
	f.Add([]byte(`[{"name":"t","keys":["k0"],"features":["f0"],"has_target":false}]`))
	f.Add([]byte(`[{"name":"t","keys":["k0","k1"],"features":["f0","f1","f2"],"has_target":true}]`))
	f.Add([]byte(`[{"name":"../t","keys":["k0"],"features":[],"has_target":false}]`))
	f.Add([]byte(`[{"name":"u","keys":["k0"],"features":[],"has_target":false}]`))
	f.Add([]byte(`[{"name":"t","keys":["k0","k1"],"features":["f0","f1"],"has_target":true,"stats":{}}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, catalog []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "db")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "t.tbl"), heap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, catalogFile), catalog, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err == nil {
			for _, name := range db.TableNames() {
				tbl, err := db.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				sc := tbl.NewScanner()
				n := int64(0)
				for sc.Next() {
					n++
				}
				if err := sc.Err(); err != nil {
					if !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
						t.Fatalf("scan of %q failed with an error not naming it: %v", name, err)
					}
				} else if n != tbl.NumTuples() {
					t.Fatalf("table %q scanned %d rows, NumTuples %d", name, n, tbl.NumTuples())
				}
			}
			for _, tbl := range db.tables { // close without saving: nothing to write back
				tbl.file.Close()
			}
		} else if names := dupNames(catalog); names != "" && !strings.Contains(err.Error(), "twice") {
			t.Fatalf("a catalog listing %s twice failed with %v", names, err)
		}
		if entries, err := os.ReadDir(root); err != nil || len(entries) != 1 {
			t.Fatalf("Open left %d entries beside the database directory (err %v)", len(entries), err)
		}
	})
}

// dupNames returns the first table name a parseable catalog lists twice,
// quoted, or "" when it lists none twice (or does not parse).
func dupNames(catalog []byte) string {
	var entries []catalogEntry
	if json.Unmarshal(catalog, &entries) != nil {
		return ""
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Name] {
			return fmt.Sprintf("%q", e.Name)
		}
		seen[e.Name] = true
	}
	return ""
}

// A catalog CheckpointSync made durable is the file Close leaves: Close
// rewrites it only when statistics moved since, and then the new ones
// persist.
func TestCloseKeepsCheckpointedCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, catalogFile)
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
	if err := db.CheckpointSync(); err != nil {
		t.Fatal(err)
	}
	synced, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(synced, closed) {
		t.Fatal("Close replaced the catalog CheckpointSync made durable")
	}

	// Rows appended after the checkpoint dirty the statistics: Close
	// persists them.
	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err = db.Table("facts")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(&Tuple{Keys: []int64{10, 9, 0}, Features: []float64{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err = db.Table("facts")
	if err != nil {
		t.Fatal(err)
	}
	if s := tbl.loadedStats; s == nil || s.Rows != 11 || s.FKDistinct[0] != 5 {
		t.Fatalf("catalog statistics after Close = %+v, want Rows=11 FKDistinct[0]=5", s)
	}
}
