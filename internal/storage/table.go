package storage

import (
	"fmt"
	"os"
)

// Table is a heap file of fixed-width records described by a Schema.
// Appends buffer into a tail page that is flushed when full (or on Flush).
// Every read goes straight to the file: a Scanner reads pages into a
// buffer of its own, UpdateAt into a fresh page; nothing caches them.
type Table struct {
	schema *Schema
	db     *Database
	file   *os.File
	path   string

	numTuples int64
	numPages  int64 // full pages on disk (tail page excluded until flushed)

	tail     *page
	tailUsed int
	flushed  bool // tail page state is on disk

	// Planner statistics (see stats.go): distinct foreign-key values per fk
	// column, maintained at Append/UpdateAt; nil until the first write of
	// this session (reopened tables serve loadedStats until then).
	// statsDirty marks in-memory statistics newer than the catalog's copy,
	// so Flush persists the catalog only when there is something new.
	fkSets      []keySet
	loadedStats *TableStats // catalog-persisted statistics from open time
	statsDirty  bool
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumTuples returns the number of appended tuples.
func (t *Table) NumTuples() int64 { return t.numTuples }

// NumPages returns the number of pages the table occupies, counting a
// partially filled tail page.
func (t *Table) NumPages() int64 {
	if t.tailUsed > 0 {
		return t.numPages + 1
	}
	return t.numPages
}

// Append adds a tuple at the end of the heap file.
func (t *Table) Append(tp *Tuple) error {
	rs := t.schema.RecordSize()
	perPage := t.schema.RecordsPerPage()
	if t.tail == nil {
		t.tail = newPage()
	}
	if err := encodeTuple(t.tail.record(t.tailUsed, rs), t.schema, tp); err != nil {
		return err
	}
	t.tailUsed++
	t.tail.setNumRecords(t.tailUsed)
	t.numTuples++
	t.flushed = false
	if t.tailUsed == perPage {
		if err := t.writePage(t.numPages, t.tail); err != nil {
			return err
		}
		t.numPages++
		t.tail.reset()
		t.tailUsed = 0
		t.flushed = true
	}
	return t.noteKeys(tp.Keys)
}

// Flush writes any buffered partial tail page to disk and persists the
// table's planner statistics into the catalog (see TableStats).
func (t *Table) Flush() error {
	if err := t.flushTail(); err != nil {
		return err
	}
	// Statistics accompany the flush so a crash afterwards still leaves
	// the catalog's copy aligned with the heap — but only when they are
	// newer than the persisted copy: per-row paths (UpdateAt) write pages
	// without rewriting the whole catalog, and the next batch-level Flush
	// or Close folds their statistics in.
	if t.statsDirty {
		return t.db.saveCatalog(false)
	}
	return nil
}

// flushTail writes the buffered partial tail page, without touching the
// catalog.
func (t *Table) flushTail() error {
	if t.tailUsed == 0 || t.flushed {
		return nil
	}
	if err := t.writePage(t.numPages, t.tail); err != nil {
		return err
	}
	t.flushed = true
	return nil
}

func (t *Table) writePage(pageNo int64, p *page) error {
	if _, err := t.file.WriteAt(p.buf, pageNo*PageSize); err != nil {
		return fmt.Errorf("storage: writing page %d of %q: %w", pageNo, t.schema.Name, err)
	}
	t.db.noteWrite()
	return nil
}

// tailInMemory reports whether page pageNo is the tail page, unflushed.
func (t *Table) tailInMemory(pageNo int64) bool {
	return pageNo == t.numPages && t.tailUsed > 0 && !t.flushed
}

// readAt reads page pageNo straight from the heap file into p. Its record
// count comes from disk, so it is checked before anyone decodes by it: a
// full page holds RecordsPerPage records, the flushed tail page tailUsed.
func (t *Table) readAt(p *page, pageNo int64) error {
	if _, err := t.file.ReadAt(p.buf, pageNo*PageSize); err != nil {
		return fmt.Errorf("storage: reading page %d of %q: %w", pageNo, t.schema.Name, err)
	}
	want := t.schema.RecordsPerPage()
	if pageNo == t.numPages {
		want = t.tailUsed
	}
	if n := p.numRecords(); n != want {
		return fmt.Errorf("storage: page %d of %q holds %d records, want %d", pageNo, t.schema.Name, n, want)
	}
	return nil
}

// UpdateAt overwrites the tuple at rowID (0-based append order) in place.
// The replacement must keep the stored primary key — heap rows are
// identified by it elsewhere (resident indexes, foreign keys) — so only
// the payload (remaining keys, features, target) may change. The rewritten
// page is flushed to disk.
func (t *Table) UpdateAt(rowID int64, tp *Tuple) error {
	if rowID < 0 || rowID >= t.numTuples {
		return fmt.Errorf("storage: row %d out of range [0,%d) in %q", rowID, t.numTuples, t.schema.Name)
	}
	rs := t.schema.RecordSize()
	perPage := int64(t.schema.RecordsPerPage())
	pageNo := rowID / perPage
	slot := int(rowID % perPage)
	inTail := pageNo == t.numPages && t.tailUsed > 0
	p := t.tail
	if !inTail {
		// A full page on disk: read it once into a page of its own.
		p = newPage()
		if err := t.readAt(p, pageNo); err != nil {
			return err
		}
		t.db.noteRead()
	}
	var old Tuple
	decodeTuple(p.record(slot, rs), t.schema, &old)
	if len(tp.Keys) == 0 || tp.Keys[0] != old.PrimaryKey() {
		return fmt.Errorf("storage: UpdateAt row %d of %q must keep primary key %d",
			rowID, t.schema.Name, old.PrimaryKey())
	}
	if err := encodeTuple(p.record(slot, rs), t.schema, tp); err != nil {
		return err
	}
	var err error
	if inTail {
		// Persist the page only, so readers of the flushed copy see the new
		// bytes; the catalog statistics ride the next batch-level
		// Flush/Close instead of costing a whole-catalog rewrite per row.
		t.flushed = false
		err = t.flushTail()
	} else {
		err = t.writePage(pageNo, p)
	}
	if err != nil {
		return err
	}
	// An update may repoint a foreign key; fold the new value into the
	// distinct sets (the old value may stay counted — see TableStats).
	return t.noteKeys(tp.Keys)
}

// Scanner iterates a table in append order, or from any row SeekRow moves
// it to. It reads each page from the heap file into one buffer of its own
// and counts one logical and one physical read per page it loads — none for
// the unflushed tail page, which it serves from memory.
type Scanner struct {
	t      *Table
	pageNo int64 // the page of the next row
	slot   int   // the next row's slot within it
	page   *page // the loaded page: buf, or the table's in-memory tail; nil when none is
	buf    *page // reused for every page read from the file
	bufNo  int64 // the page buf holds
	tuple  Tuple
	err    error
	served int64 // the next row's id
}

// NewScanner returns a scanner positioned before the first tuple.
func (t *Table) NewScanner() *Scanner {
	return &Scanner{t: t, buf: newPage()}
}

// SeekRow positions the scanner before the tuple with the given row id
// (0-based append order); Next then reads on from there. rowID may equal
// NumTuples, which leaves the scanner exhausted. A seek onto the page the
// scanner's buffer holds reads nothing; any other page is read again by the
// next Next — the in-memory tail too, which is always taken from the table
// afresh, so a tail that appends have since flushed is never served stale.
// This is how a scan over a tail range costs I/O proportional to that range
// (internal/stream) and how a permuted pass reads its rows (internal/join).
func (s *Scanner) SeekRow(rowID int64) error {
	t := s.t
	if rowID < 0 || rowID > t.numTuples {
		return fmt.Errorf("storage: row %d out of range [0,%d] in %q", rowID, t.numTuples, t.schema.Name)
	}
	perPage := int64(t.schema.RecordsPerPage())
	s.pageNo, s.slot, s.served = rowID/perPage, int(rowID%perPage), rowID
	if s.page != s.buf || s.bufNo != s.pageNo || s.slot >= s.buf.numRecords() {
		s.page = nil
	}
	return nil
}

// Next advances to the next tuple; it returns false at the end of the table
// or on error (check Err).
func (s *Scanner) Next() bool {
	if s.err != nil || s.served >= s.t.numTuples {
		return false
	}
	if s.page == nil || s.slot >= s.page.numRecords() {
		if s.page != nil {
			s.pageNo++
			s.slot = 0
		}
		if s.err = s.load(); s.err != nil {
			return false
		}
	}
	decodeTuple(s.page.record(s.slot, s.t.schema.RecordSize()), s.t.schema, &s.tuple)
	s.slot++
	s.served++
	return true
}

// load moves the scanner onto page pageNo.
func (s *Scanner) load() error {
	t := s.t
	if t.tailInMemory(s.pageNo) {
		s.page = t.tail
		return nil
	}
	if err := t.readAt(s.buf, s.pageNo); err != nil {
		return err
	}
	t.db.noteRead()
	s.page, s.bufNo = s.buf, s.pageNo
	return nil
}

// Tuple returns the current tuple. The returned pointer is reused across
// Next calls; Clone it to retain.
func (s *Scanner) Tuple() *Tuple { return &s.tuple }

// Err returns the first error encountered by the scanner.
func (s *Scanner) Err() error { return s.err }

// Path returns the table's backing heap-file path (checkpointing copies
// or truncates heap files at this granularity; see internal/stream).
func (t *Table) Path() string { return t.path }

// TailPageState reports the heap-file geometry a checkpoint must
// record to restore this table exactly: the number of full pages, and
// a copy of the buffered partial tail page (nil when the tail is
// empty). Appends after the checkpoint rewrite the tail page in place
// — growing its record count without changing which pages are full —
// so a restore truncates the file to fullPages*PageSize and re-appends
// the saved tail page rather than trusting the file size.
func (t *Table) TailPageState() (fullPages int64, tailPage []byte) {
	if t.tailUsed == 0 {
		return t.numPages, nil
	}
	buf := make([]byte, PageSize)
	copy(buf, t.tail.buf)
	return t.numPages, buf
}

// SyncToDisk flushes the buffered tail page and fsyncs the heap file,
// making every appended tuple durable. Part of the checkpoint protocol
// (Database.CheckpointSync).
func (t *Table) SyncToDisk() error {
	if err := t.flushTail(); err != nil {
		return err
	}
	if err := t.file.Sync(); err != nil {
		return fmt.Errorf("storage: syncing %q: %w", t.schema.Name, err)
	}
	return nil
}
