package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func testSchema(name string, nKeys, nFeat int, target bool) *Schema {
	s := &Schema{Name: name, HasTarget: target}
	for i := 0; i < nKeys; i++ {
		s.Keys = append(s.Keys, fmt.Sprintf("k%d", i))
	}
	for i := 0; i < nFeat; i++ {
		s.Features = append(s.Features, fmt.Sprintf("f%d", i))
	}
	return s
}

func openTestDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// getRow reads the tuple at rowID into dst the way every reader does: a
// scanner moved onto it.
func getRow(tbl *Table, rowID int64, dst *Tuple) error {
	sc := tbl.NewScanner()
	if err := sc.SeekRow(rowID); err != nil {
		return err
	}
	if !sc.Next() {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("row %d: no such row in %q", rowID, tbl.Schema().Name)
	}
	*dst = *clone(sc.Tuple())
	return nil
}

// clone returns a deep copy of t.
func clone(t *Tuple) *Tuple {
	return &Tuple{Keys: append([]int64{}, t.Keys...), Features: append([]float64{}, t.Features...), Target: t.Target}
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name string
		s    *Schema
		ok   bool
	}{
		{"valid", testSchema("a", 1, 2, false), true},
		{"valid target", testSchema("b", 2, 3, true), true},
		{"empty name", testSchema("", 1, 1, false), false},
		{"no keys", testSchema("c", 0, 1, false), false},
		{"dup column", &Schema{Name: "d", Keys: []string{"x"}, Features: []string{"x"}}, false},
		{"empty column", &Schema{Name: "e", Keys: []string{""}}, false},
		{"too wide", testSchema("f", 1, 1100, false), false},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSchemaRecordLayout(t *testing.T) {
	s := testSchema("t", 2, 3, true)
	if got := s.RecordSize(); got != 2*8+3*8+8 {
		t.Fatalf("RecordSize = %d, want 48", got)
	}
	if got := s.RecordsPerPage(); got != PageDataSize/48 {
		t.Fatalf("RecordsPerPage = %d", got)
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	db := openTestDB(t)
	tbl, err := db.CreateTable(testSchema("r", 1, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	rng := rand.New(rand.NewSource(5))
	want := make([]*Tuple, n)
	for i := 0; i < n; i++ {
		tp := &Tuple{
			Keys:     []int64{int64(i)},
			Features: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			Target:   rng.Float64(),
		}
		want[i] = tp
		if err := tbl.Append(clone(tp)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	var got Tuple
	for _, i := range []int64{0, 1, 169, 170, 999} {
		if err := getRow(tbl, i, &got); err != nil {
			t.Fatal(err)
		}
		w := want[i]
		if got.Keys[0] != w.Keys[0] || got.Target != w.Target {
			t.Fatalf("row %d: got %+v want %+v", i, got, *w)
		}
		for j := range w.Features {
			if got.Features[j] != w.Features[j] {
				t.Fatalf("row %d feature %d: got %v want %v", i, j, got.Features[j], w.Features[j])
			}
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.CreateTable(testSchema("r", 1, 1, false))
	var tp Tuple
	if err := getRow(tbl, 0, &tp); err == nil {
		t.Fatal("reading row 0 of an empty table should fail")
	}
	if err := getRow(tbl, -1, &tp); err == nil {
		t.Fatal("reading row -1 should fail")
	}
}

func TestScannerFullScan(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.CreateTable(testSchema("r", 1, 2, false))
	const n = 2345
	for i := 0; i < n; i++ {
		err := tbl.Append(&Tuple{Keys: []int64{int64(i)}, Features: []float64{float64(i), -float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	sc := tbl.NewScanner()
	i := int64(0)
	for sc.Next() {
		tp := sc.Tuple()
		if tp.Keys[0] != i || tp.Features[0] != float64(i) {
			t.Fatalf("scan row %d: got key %d feat %v", i, tp.Keys[0], tp.Features[0])
		}
		i++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if i != n {
		t.Fatalf("scanned %d rows, want %d", i, n)
	}
}

func TestScanUnflushedTail(t *testing.T) {
	// The tail page lives only in memory until Flush; scans must still see it.
	db := openTestDB(t)
	tbl, _ := db.CreateTable(testSchema("r", 1, 1, false))
	for i := 0; i < 3; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{int64(i)}, Features: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	sc := tbl.NewScanner()
	count := 0
	for sc.Next() {
		count++
	}
	if count != 3 {
		t.Fatalf("scanned %d rows from unflushed tail, want 3", count)
	}
}

func TestNumPages(t *testing.T) {
	db := openTestDB(t)
	s := testSchema("r", 1, 1, false) // 16-byte records, 511 per page
	tbl, _ := db.CreateTable(s)
	per := int64(s.RecordsPerPage())
	for i := int64(0); i < per+1; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{i}, Features: []float64{0}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.NumPages(); got != 2 {
		t.Fatalf("NumPages = %d, want 2 (one full + tail)", got)
	}
	if got := tbl.NumTuples(); got != per+1 {
		t.Fatalf("NumTuples = %d, want %d", got, per+1)
	}
}

// fillPages appends pages full pages of one-key, one-feature rows to a new
// table, plus tail rows left unflushed.
func fillPages(t *testing.T, db *Database, name string, pages, tail int) *Table {
	t.Helper()
	s := testSchema(name, 1, 1, false)
	tbl, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages*s.RecordsPerPage()+tail; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{int64(i)}, Features: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// A sequential scan counts one logical and one physical read per full
// page; the unflushed tail counts neither.
func TestScanCountsOneReadPerPage(t *testing.T) {
	db := openTestDB(t)
	const pages, tail = 6, 3
	tbl := fillPages(t, db, "r", pages, tail)
	io0 := db.IOStats()
	sc := tbl.NewScanner()
	n := int64(0)
	for sc.Next() {
		if sc.Tuple().Keys[0] != n {
			t.Fatalf("row %d: key %d", n, sc.Tuple().Keys[0])
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != tbl.NumTuples() {
		t.Fatalf("scanned %d rows, want %d", n, tbl.NumTuples())
	}
	if got, want := db.IOStats().Sub(io0), (IOStats{LogicalReads: pages, PhysicalReads: pages}); got != want {
		t.Fatalf("scan counted %v, want %v", got, want)
	}
}

// A scan reuses one page buffer: its allocations do not grow with the
// table.
func TestScanAllocsIndependentOfPages(t *testing.T) {
	db := openTestDB(t)
	allocs := func(tbl *Table) float64 {
		return testing.AllocsPerRun(5, func() {
			sc := tbl.NewScanner()
			for sc.Next() {
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(fillPages(t, db, "small", 4, 0)), allocs(fillPages(t, db, "large", 64, 0))
	if small != large {
		t.Fatalf("a scan allocates %v times over 4 pages and %v over 64", small, large)
	}
}

func TestPageWriteCounter(t *testing.T) {
	db := openTestDB(t)
	s := testSchema("r", 1, 1, false)
	tbl, _ := db.CreateTable(s)
	per := s.RecordsPerPage()
	for i := 0; i < 2*per; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{int64(i)}, Features: []float64{0}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.IOStats().PageWrites; got != 2 {
		t.Fatalf("PageWrites = %d, want 2 after two full pages", got)
	}
	if err := tbl.Append(&Tuple{Keys: []int64{99}, Features: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.IOStats().PageWrites; got != 3 {
		t.Fatalf("PageWrites = %d, want 3 after flushing tail", got)
	}
	// Flushing again without new appends is a no-op.
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.IOStats().PageWrites; got != 3 {
		t.Fatalf("PageWrites = %d, want 3 after idempotent flush", got)
	}
}

func TestCatalog(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.CreateTable(testSchema("a", 1, 1, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(testSchema("b", 1, 1, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(testSchema("a", 1, 1, false)); err == nil {
		t.Fatal("duplicate CreateTable should fail")
	}
	if _, err := db.Table("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("missing"); err == nil {
		t.Fatal("Table(missing) should fail")
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("TableNames = %v", names)
	}
	if err := db.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("a"); err == nil {
		t.Fatal("dropped table still visible")
	}
	if err := db.DropTable("a"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestTupleEncodeErrors(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.CreateTable(testSchema("r", 1, 2, false))
	if err := tbl.Append(&Tuple{Keys: []int64{1}, Features: []float64{1}}); err == nil {
		t.Fatal("wrong feature arity should fail")
	}
	if err := tbl.Append(&Tuple{Keys: []int64{1, 2}, Features: []float64{1, 2}}); err == nil {
		t.Fatal("wrong key arity should fail")
	}
}

func TestSpecialFloatValuesRoundTrip(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.CreateTable(testSchema("r", 1, 3, true))
	in := &Tuple{
		Keys:     []int64{-7},
		Features: []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)},
		Target:   math.MaxFloat64,
	}
	if err := tbl.Append(in); err != nil {
		t.Fatal(err)
	}
	var out Tuple
	if err := getRow(tbl, 0, &out); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out.Features[0], 1) || !math.IsInf(out.Features[1], -1) {
		t.Fatalf("infinities lost: %v", out.Features)
	}
	if math.Signbit(out.Features[2]) != true {
		t.Fatal("negative zero sign lost")
	}
	if out.Target != math.MaxFloat64 || out.Keys[0] != -7 {
		t.Fatalf("target/keys lost: %+v", out)
	}
}

func TestStatsSubAndString(t *testing.T) {
	a := IOStats{LogicalReads: 10, PhysicalReads: 4, PageWrites: 2}
	b := IOStats{LogicalReads: 3, PhysicalReads: 1, PageWrites: 2}
	d := a.Sub(b)
	if d.LogicalReads != 7 || d.PhysicalReads != 3 || d.PageWrites != 0 {
		t.Fatalf("Sub = %+v", d)
	}
	if d.String() == "" {
		t.Fatal("String empty")
	}
}
