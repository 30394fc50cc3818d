package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Database is a catalog of tables backed by heap files in a directory. It
// counts the page traffic of all of them (IOStats).
type Database struct {
	dir    string
	tables map[string]*Table

	ioMu sync.Mutex
	io   IOStats
}

// Options is ignored: storage has no settings. It remains only so the
// benchmark harness's Open call compiles; ROADMAP item 14 deletes it.
type Options struct{ PoolPages int }

// Open creates (or reuses) a database directory.
func Open(dir string, _ ...Options) (*Database, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating database dir: %w", err)
	}
	db := &Database{dir: dir, tables: make(map[string]*Table)}
	if err := db.loadCatalog(); err != nil {
		for _, t := range db.tables { // the tables opened before the failure
			t.file.Close()
		}
		return nil, err
	}
	return db, nil
}

// IOStats aggregates page traffic counters. LogicalReads counts every page
// a read moves onto: each page a scanner loads from the file (a sequential
// scan reads each page once; a scanner repositioned with SeekRow reads a
// page again only when the row lies on another page than the one it
// holds), and each page UpdateAt rewrites. Every such read goes to the
// file, so PhysicalReads equals LogicalReads; both are kept because the
// paper's analytic cost formulas (§V-A) are stated in logical page reads of
// the block-nested-loops join, and reports quote the two side by side. A
// page served from a table's unflushed tail counts as neither.
type IOStats struct {
	LogicalReads  int64
	PhysicalReads int64
	PageWrites    int64
}

// Sub returns s - o, useful for measuring a window of activity.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		LogicalReads:  s.LogicalReads - o.LogicalReads,
		PhysicalReads: s.PhysicalReads - o.PhysicalReads,
		PageWrites:    s.PageWrites - o.PageWrites,
	}
}

func (s IOStats) String() string {
	return fmt.Sprintf("logical=%d physical=%d writes=%d", s.LogicalReads, s.PhysicalReads, s.PageWrites)
}

// IOStats returns a snapshot of the page counters of every table.
func (db *Database) IOStats() IOStats {
	db.ioMu.Lock()
	defer db.ioMu.Unlock()
	return db.io
}

// ResetIOStats zeroes the page counters.
func (db *Database) ResetIOStats() {
	db.ioMu.Lock()
	defer db.ioMu.Unlock()
	db.io = IOStats{}
}

// noteRead records one page read from a heap file.
func (db *Database) noteRead() {
	db.ioMu.Lock()
	defer db.ioMu.Unlock()
	db.io.LogicalReads++
	db.io.PhysicalReads++
}

// noteWrite records one page written to a heap file.
func (db *Database) noteWrite() {
	db.ioMu.Lock()
	defer db.ioMu.Unlock()
	db.io.PageWrites++
}

// Dir returns the database directory.
func (db *Database) Dir() string { return db.dir }

// CreateTable creates an empty table for the schema. It fails if a table
// with the same name exists.
func (db *Database) CreateTable(s *Schema) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if _, ok := db.tables[s.Name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", s.Name)
	}
	path := filepath.Join(db.dir, s.Name+".tbl")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: creating table file: %w", err)
	}
	t := &Table{
		schema: s.Clone(s.Name),
		db:     db,
		file:   f,
		path:   path,
	}
	db.tables[s.Name] = t
	if err := db.saveCatalog(false); err != nil {
		return nil, err
	}
	return t, nil
}

// Table returns the named table.
func (db *Database) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: no table %q", name)
	}
	return t, nil
}

// DropTable removes the table and its file.
func (db *Database) DropTable(name string) error {
	t, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("storage: no table %q", name)
	}
	delete(db.tables, name)
	if err := t.file.Close(); err != nil {
		return err
	}
	if err := os.Remove(t.path); err != nil {
		return err
	}
	return db.saveCatalog(false)
}

// TableNames lists tables in sorted order.
func (db *Database) TableNames() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CheckpointSync makes the whole database durable: every table's
// buffered tail page is flushed and its heap file fsynced, and the
// catalog is rewritten through durable.WriteFile with fsync. After it returns,
// the on-disk directory is a consistent, reopenable image of the
// in-memory state — the precondition for committing a WAL snapshot
// that references these files.
func (db *Database) CheckpointSync() error {
	for _, name := range db.TableNames() {
		if err := db.tables[name].SyncToDisk(); err != nil {
			return err
		}
	}
	return db.saveCatalog(true)
}

// Close flushes and closes every table. The database directory (including
// the catalog, so it can be reopened) is left on disk; use os.RemoveAll to
// delete it. Only a table whose statistics moved rewrites the catalog (in
// Flush), so Close keeps the file a checkpoint made durable.
func (db *Database) Close() error {
	var first error
	for _, t := range db.tables {
		if err := t.Flush(); err != nil && first == nil {
			first = err
		}
		if err := t.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	db.tables = map[string]*Table{}
	return first
}
