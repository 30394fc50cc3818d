package storage

import "testing"

func streamTestTable(t *testing.T, n int64) *Table {
	t.Helper()
	db := openTestDB(t)
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

// A scanner moved with SeekRow reads on to the end of the table, from any
// start: the access path of the incremental maintenance absorbs.
func TestSeekRowScansToEnd(t *testing.T) {
	// Enough rows to span several pages, plus a buffered (unflushed) tail.
	const n = 1000
	tbl := streamTestTable(t, n)

	for _, start := range []int64{0, 1, 499, 997, n - 1, n} {
		sc := tbl.NewScanner()
		if err := sc.SeekRow(start); err != nil {
			t.Fatalf("SeekRow(%d): %v", start, err)
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
}

// SeekRow reads a page only when the row lies on another page than the one
// the scanner's buffer holds, never counts the unflushed tail, takes that
// tail from the table afresh, and rejects rows outside [0, NumTuples].
func TestSeekRow(t *testing.T) {
	db := openTestDB(t)
	const pages, tail = 4, 3
	tbl := fillPages(t, db, "r", pages, tail)
	per := int64(tbl.Schema().RecordsPerPage())
	sc := tbl.NewScanner()
	seek := func(row int64, reads int64) {
		t.Helper()
		io0 := db.IOStats()
		if err := sc.SeekRow(row); err != nil {
			t.Fatalf("SeekRow(%d): %v", row, err)
		}
		if !sc.Next() {
			t.Fatalf("row %d: Next false (err %v)", row, sc.Err())
		}
		if got := sc.Tuple().PrimaryKey(); got != row {
			t.Fatalf("SeekRow(%d) then Next read key %d", row, got)
		}
		if got, want := db.IOStats().Sub(io0), (IOStats{LogicalReads: reads, PhysicalReads: reads}); got != want {
			t.Fatalf("SeekRow(%d) then Next counted %v, want %v", row, got, want)
		}
	}

	// Back and forth across full pages: one read per page change.
	seek(2*per+7, 1)
	seek(5, 1)
	seek(3*per, 1)
	seek(per-1, 1)
	// A second seek onto the loaded page reads nothing, before or after
	// the row last read.
	seek(per-2, 0)
	seek(0, 0)
	// The unflushed tail is served from memory.
	seek(pages*per+1, 0)
	seek(pages*per, 0)

	// Appends that fill and flush the tail page start a new tail; the old
	// tail page's rows now come from the file, not from the new tail.
	for i := pages*per + tail; i < (pages+1)*per+2; i++ {
		if err := tbl.Append(&Tuple{Keys: []int64{i}, Features: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	seek(pages*per+1, 1)
	seek((pages+1)*per+1, 0)

	for _, row := range []int64{-1, tbl.NumTuples() + 1} {
		if err := sc.SeekRow(row); err == nil {
			t.Errorf("SeekRow(%d) accepted, table has %d rows", row, tbl.NumTuples())
		}
	}
	if err := sc.SeekRow(tbl.NumTuples()); err != nil || sc.Next() {
		t.Fatalf("SeekRow(NumTuples) = %v, then Next served a row", err)
	}
}

func TestUpdateAt(t *testing.T) {
	const n = 1000 // rows on full pages and in the tail
	tbl := streamTestTable(t, n)

	for _, row := range []int64{0, 3, 700, n - 1} {
		var old Tuple
		if err := getRow(tbl, row, &old); err != nil {
			t.Fatal(err)
		}
		upd := &Tuple{Keys: []int64{old.PrimaryKey()}, Features: []float64{-1, -2}}
		if err := tbl.UpdateAt(row, upd); err != nil {
			t.Fatalf("UpdateAt(%d): %v", row, err)
		}
		var got Tuple
		if err := getRow(tbl, row, &got); err != nil {
			t.Fatal(err)
		}
		if got.Features[0] != -1 || got.Features[1] != -2 {
			t.Fatalf("row %d after update = %v", row, got.Features)
		}
	}
	// Neighbors are untouched.
	var neighbor Tuple
	if err := getRow(tbl, 4, &neighbor); err != nil {
		t.Fatal(err)
	}
	if neighbor.Features[0] != 4 {
		t.Fatalf("row 4 corrupted by update of row 3: %v", neighbor.Features)
	}
	// A full scan observes the updates.
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
// the file, and counts that one read and one write.
func TestUpdateAtReadsPageOnce(t *testing.T) {
	db := openTestDB(t)
	tbl := fillPages(t, db, "r", 3, 0)
	per := int64(tbl.Schema().RecordsPerPage())
	for _, row := range []int64{2*per + 5, 5} {
		io0 := db.IOStats()
		if err := tbl.UpdateAt(row, &Tuple{Keys: []int64{row}, Features: []float64{-1}}); err != nil {
			t.Fatal(err)
		}
		if got, want := db.IOStats().Sub(io0), (IOStats{LogicalReads: 1, PhysicalReads: 1, PageWrites: 1}); got != want {
			t.Errorf("UpdateAt(%d) counted %v, want %v", row, got, want)
		}
	}
	var tp Tuple
	for _, row := range []int64{5, 2*per + 5} {
		if err := getRow(tbl, row, &tp); err != nil || tp.Features[0] != -1 {
			t.Fatalf("row %d after update: %v (err %v)", row, tp.Features, err)
		}
	}
}
