package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"factorml/internal/durable"
)

const catalogFile = "catalog.json"

type catalogEntry struct {
	Name      string   `json:"name"`
	Keys      []string `json:"keys"`
	Features  []string `json:"features"`
	Refs      []string `json:"refs,omitempty"`
	HasTarget bool     `json:"has_target"`
	// Stats is the table's planner statistics snapshot (see TableStats);
	// absent in catalogs written before the cost-based planner existed, in
	// which case the first Stats call after reopening rescans the keys.
	Stats *TableStats `json:"stats,omitempty"`
}

// saveCatalog persists the schemas — and planner statistics — of all
// tables so a database directory can be reopened by a later process. The
// file is replaced through durable.WriteFile, fsynced when sync is set for
// checkpoints that must survive power loss.
func (db *Database) saveCatalog(sync bool) error {
	entries := make([]catalogEntry, 0, len(db.tables))
	for _, name := range db.TableNames() {
		t := db.tables[name]
		s := t.schema
		entries = append(entries, catalogEntry{
			Name: s.Name, Keys: s.Keys, Features: s.Features, Refs: s.Refs, HasTarget: s.HasTarget,
			Stats: t.statsForCatalog(),
		})
	}
	if err := durable.WriteFile(filepath.Join(db.dir, catalogFile), sync, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(entries)
	}); err != nil {
		return fmt.Errorf("storage: writing catalog: %w", err)
	}
	// Every table's statistics are now in the persisted catalog; further
	// Flushes can skip the rewrite until new keys arrive.
	for _, t := range db.tables {
		t.statsDirty = false
	}
	return nil
}

// loadCatalog reopens every table recorded in the catalog file, if present.
func (db *Database) loadCatalog() error {
	blob, err := os.ReadFile(filepath.Join(db.dir, catalogFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: reading catalog: %w", err)
	}
	var entries []catalogEntry
	if err := json.Unmarshal(blob, &entries); err != nil {
		return fmt.Errorf("storage: parsing catalog: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	for i := 1; i < len(entries); i++ {
		if entries[i].Name == entries[i-1].Name {
			return fmt.Errorf("storage: catalog lists table %q twice", entries[i].Name)
		}
	}
	for _, e := range entries {
		schema := &Schema{Name: e.Name, Keys: e.Keys, Features: e.Features, Refs: e.Refs, HasTarget: e.HasTarget}
		if err := db.openExisting(schema); err != nil {
			return err
		}
		if e.Stats != nil {
			db.tables[e.Name].loadedStats = e.Stats
		}
	}
	return nil
}

// openExisting attaches an existing heap file, recovering tuple counts from
// the file size and the last page's record-count header.
func (db *Database) openExisting(s *Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	path := filepath.Join(db.dir, s.Name+".tbl")
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: opening table file: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if info.Size()%PageSize != 0 {
		f.Close()
		return fmt.Errorf("storage: table file %q has torn size %d", path, info.Size())
	}
	pages := info.Size() / PageSize
	t := &Table{
		schema: s.Clone(s.Name),
		db:     db,
		file:   f,
		path:   path,
	}

	perPage := int64(s.RecordsPerPage())
	if pages > 0 {
		last := newPage()
		if _, err := f.ReadAt(last.buf, (pages-1)*PageSize); err != nil {
			f.Close()
			return fmt.Errorf("storage: reading tail page of %q: %w", path, err)
		}
		n := last.numRecords()
		if int64(n) > perPage {
			f.Close()
			return fmt.Errorf("storage: tail page %d of %q holds %d records, more than the %d a page fits",
				pages-1, s.Name, n, perPage)
		}
		if int64(n) == perPage {
			// All pages full.
			t.numPages = pages
			t.numTuples = pages * perPage
		} else {
			// Last page is a partial tail: keep it buffered for appends.
			t.numPages = pages - 1
			t.numTuples = (pages-1)*perPage + int64(n)
			t.tail = last
			t.tailUsed = n
			t.flushed = true
		}
	}
	db.tables[s.Name] = t
	return nil
}
