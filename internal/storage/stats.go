package storage

// TableStats summarizes a relation for the cost-based strategy planner
// (internal/plan): row and page counts, feature width, and the number of
// distinct values per foreign-key column — from which the per-level
// fan-out of a join falls out (Rows / FKDistinct[i]).
//
// Lifecycle: the counters are maintained incrementally at Append/UpdateAt
// (distinct foreign keys via one in-memory keySet per column: a bitset over
// the dense non-negative keys — a bit per key when keys are 0…n−1 — and a
// map for the rest, with an exact count), persisted into the catalog at
// Flush and Close, and restored on reopen. A reopened table serves its
// persisted statistics without touching the heap; the first write after
// reopening (or a Stats call finding the persisted copy stale) hydrates
// the distinct sets with one key-only scan, after which maintenance is
// incremental again. Updates that change a foreign key may leave the old
// value counted — distinct counts are upper bounds after in-place updates,
// which is the safe direction for a planner.
type TableStats struct {
	Rows       int64   `json:"rows"`
	Pages      int64   `json:"pages"`
	Width      int     `json:"width"`
	FKDistinct []int64 `json:"fk_distinct,omitempty"`
}

// clone returns a deep copy.
func (s TableStats) clone() TableStats {
	c := s
	if s.FKDistinct != nil {
		c.FKDistinct = append([]int64{}, s.FKDistinct...)
	}
	return c
}

// Stats returns the table's current statistics. When the table was
// reopened and not written since, the catalog-persisted statistics are
// served as-is; otherwise the in-memory distinct sets are consulted,
// hydrating them with one key-only scan if the persisted copy is stale or
// missing.
func (t *Table) Stats() (TableStats, error) {
	if t.fkSets == nil {
		if t.loadedStats != nil && t.loadedStats.Rows == t.numTuples &&
			len(t.loadedStats.FKDistinct) == t.schema.NumKeys()-1 {
			s := t.loadedStats.clone()
			s.Pages = t.NumPages() // cheap and always current
			s.Width = t.schema.NumFeatures()
			return s, nil
		}
		if err := t.hydrateFKSets(); err != nil {
			return TableStats{}, err
		}
	}
	return t.statsFromSets(), nil
}

func (t *Table) statsFromSets() TableStats {
	s := TableStats{
		Rows:       t.numTuples,
		Pages:      t.NumPages(),
		Width:      t.schema.NumFeatures(),
		FKDistinct: make([]int64, len(t.fkSets)),
	}
	for i := range t.fkSets {
		s.FKDistinct[i] = t.fkSets[i].count()
	}
	return s
}

// statsForCatalog returns the statistics to persist, without forcing a
// hydration scan: live sets when the table has been written this session,
// the previously persisted copy otherwise (nil when neither exists).
func (t *Table) statsForCatalog() *TableStats {
	if t.fkSets != nil {
		s := t.statsFromSets()
		return &s
	}
	if t.loadedStats != nil {
		s := t.loadedStats.clone()
		s.Pages = t.NumPages()
		s.Width = t.schema.NumFeatures()
		return &s
	}
	return nil
}

// hydrateFKSets builds the distinct-foreign-key sets with one key-only
// scan of the heap. Called lazily: on the first write to a reopened table,
// or by Stats when the persisted statistics are stale.
func (t *Table) hydrateFKSets() error {
	nfk := t.schema.NumKeys() - 1
	sets := make([]keySet, nfk)
	if t.numTuples > 0 && nfk > 0 {
		sc := t.NewScanner()
		for sc.Next() {
			keys := sc.Tuple().Keys
			for i := range sets {
				sets[i].add(keys[1+i])
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	t.fkSets = sets
	return nil
}

// noteKeys folds one tuple's foreign keys into the distinct sets,
// hydrating them first if this is the first write since reopening.
func (t *Table) noteKeys(keys []int64) error {
	if t.fkSets == nil {
		if err := t.hydrateFKSets(); err != nil {
			return err
		}
	}
	for i := range t.fkSets {
		t.fkSets[i].add(keys[1+i])
	}
	t.statsDirty = true
	return nil
}
