package join

import (
	"fmt"
	"sync"

	"factorml/internal/storage"
)

// ResidentIndex pins a dimension table's feature vectors in memory, keyed
// by primary key. Lookups touch no page and no buffer pool (which is
// single-threaded), so a ResidentIndex serves concurrent probes — what the
// serving path needs: the prediction engine probes one ResidentIndex per
// dimension table from every worker of a request batch.
// The paper's setting already assumes the dimension relations fit in memory
// (the block-nested-loops join keeps Rs[1:] resident); this reuses that
// assumption at serve time.
//
// Since the streaming subsystem (internal/stream) landed, the index is no
// longer immutable: Upsert installs new or replacement feature vectors
// under a write lock, so dimension updates can reach a live server without
// a rebuild. Feature slices themselves stay immutable — a replacement
// installs a FRESH slice — so a reader holding a slice from Lookup never
// observes a mutation, and slice identity doubles as a per-key freshness
// token for caches derived from the index (see internal/serve's dimCache).
//
// Every tuple also gets a dense index in insertion order (Pos/At), stable
// across Upserts of existing keys. The incremental-statistics accumulators
// key their per-dimension-tuple (group) state by this index, which makes
// their assembly order — and hence their floating-point results —
// independent of map iteration order.
type ResidentIndex struct {
	name  string
	width int
	nrefs int // foreign-key columns per tuple (snowflake sub-dimension refs)

	mu    sync.RWMutex
	pks   []int64       // dense index -> primary key, insertion order
	pos   map[int64]int // primary key -> dense index
	feats [][]float64   // dense index -> features (slices are immutable)
	subs  [][]int64     // dense index -> foreign keys (slices are immutable)
}

// BuildResidentIndex scans the table once and pins every tuple's features
// and foreign keys (the latter resolve sub-dimension hops in a snowflake).
func BuildResidentIndex(t *storage.Table) (*ResidentIndex, error) {
	ix := &ResidentIndex{
		name:  t.Schema().Name,
		width: t.Schema().NumFeatures(),
		nrefs: t.Schema().NumKeys() - 1,
		pos:   make(map[int64]int, t.NumTuples()),
	}
	sc := t.NewScanner()
	for sc.Next() {
		tp := sc.Tuple()
		pk := tp.PrimaryKey()
		if at, dup := ix.pos[pk]; dup {
			return nil, fmt.Errorf(
				"join: duplicate primary key %d in table %q: tuple at row %d has features %v, tuple at row %d has features %v",
				pk, ix.name, at, ix.feats[at], len(ix.feats), tp.Features)
		}
		ix.pos[pk] = len(ix.pks)
		ix.pks = append(ix.pks, pk)
		ix.feats = append(ix.feats, append([]float64{}, tp.Features...))
		ix.subs = append(ix.subs, append([]int64{}, tp.Keys[1:]...))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Name returns the indexed table's name.
func (ix *ResidentIndex) Name() string { return ix.name }

// Width returns the indexed table's feature width.
func (ix *ResidentIndex) Width() int { return ix.width }

// Len returns the number of indexed tuples.
func (ix *ResidentIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.pks)
}

// Lookup returns the features of the tuple with the given primary key. The
// slice is immutable and shared; do not modify it.
func (ix *ResidentIndex) Lookup(pk int64) ([]float64, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	i, ok := ix.pos[pk]
	if !ok {
		return nil, false
	}
	return ix.feats[i], true
}

// Pos returns the dense insertion-order index of the tuple with the given
// primary key. The index is stable: Upserts of existing keys keep it, and
// new keys always append.
func (ix *ResidentIndex) Pos(pk int64) (int, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	i, ok := ix.pos[pk]
	return i, ok
}

// At returns the primary key and features of the tuple with dense index i
// (0 ≤ i < Len). The feature slice is immutable and shared.
func (ix *ResidentIndex) At(i int) (pk int64, feats []float64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.pks[i], ix.feats[i]
}

// NumRefs returns the number of foreign-key columns per indexed tuple.
func (ix *ResidentIndex) NumRefs() int { return ix.nrefs }

// SubsAt returns the foreign keys of the tuple with dense index i. The
// slice is immutable and shared (like Lookup's feature slices, a
// replacement installs a fresh slice).
func (ix *ResidentIndex) SubsAt(i int) []int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.subs[i]
}

// Upsert installs the foreign keys and features for a primary key —
// replacing the existing tuple's vectors, or appending a new tuple at the
// next dense index. Both slices are copied into fresh allocations that are
// never mutated afterwards (the freshness-token contract above). subs may
// be nil for a table without sub-dimension references.
func (ix *ResidentIndex) Upsert(pk int64, subs []int64, feats []float64) (isNew bool, err error) {
	if len(feats) != ix.width {
		return false, fmt.Errorf("join: upsert of key %d into %q has %d features, table has %d",
			pk, ix.name, len(feats), ix.width)
	}
	if len(subs) != ix.nrefs {
		return false, fmt.Errorf("join: upsert of key %d into %q has %d foreign keys, table has %d",
			pk, ix.name, len(subs), ix.nrefs)
	}
	cp := append([]float64{}, feats...)
	scp := append([]int64{}, subs...)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if i, ok := ix.pos[pk]; ok {
		ix.feats[i] = cp
		ix.subs[i] = scp
	} else {
		isNew = true
		ix.pos[pk] = len(ix.pks)
		ix.pks = append(ix.pks, pk)
		ix.feats = append(ix.feats, cp)
		ix.subs = append(ix.subs, scp)
	}
	return isNew, nil
}
