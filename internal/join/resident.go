package join

import (
	"fmt"
	"math"
	"sync"

	"factorml/internal/storage"
)

// ResidentIndex pins a dimension table's feature vectors in memory, keyed
// by primary key. Lookups touch no page and no table scanner (which is
// single-threaded), so a ResidentIndex serves concurrent probes — what the
// serving path needs: the prediction engine probes one ResidentIndex per
// dimension table from every worker of a request batch. It is also the
// training join's resident form: the paper's setting assumes the dimension
// relations fit in memory (the block-nested-loops join keeps Rs[1:]
// resident), and the Runner pins Rs[1:] as ResidentIndexes, copying each
// direct tuple's subtree into its arenas.
//
// Every tuple has an ordinal, its insertion-order position (Pos/At), stable
// across Upserts of existing keys: the incremental-statistics accumulators
// key their per-dimension-tuple (group) state by it, and the serving caches
// key their entries by it. The tuples live in flat arenas indexed by
// ordinal: features (ordinal × width), sub-dimension keys (ordinal × the
// table's foreign-key count) and one version counter per ordinal. Keys that
// are already 0…n−1 — the common case — ARE the ordinals: the index keeps no
// key map until the first insert of a key that is not the next ordinal
// builds one (sparse mode), and stays sparse from then on.
//
// The index is mutable: Upsert writes a replacement tuple in place under
// the write lock and bumps its ordinal's version, so (ordinal, version)
// names one tuple value for as long as the index lives — the freshness
// token of caches derived from it (see internal/serve's dimCache). Row
// copies a tuple's features and sub-keys and returns their version under
// one read lock;
// Lookup and At return views into the feature arena instead, which stay
// valid only until that tuple is next upserted. A caller holding a view
// must exclude concurrent Upserts of the tuple (the streaming subsystem
// reads views and upserts only under its own mutex); concurrent readers
// that cannot, such as the serving engine, use Row (through
// Resolver.Subtree).
type ResidentIndex struct {
	name  string
	width int
	nrefs int // foreign-key columns per tuple (snowflake sub-dimension refs)

	mu    sync.RWMutex
	feats []float64 // ordinal × width
	subs  []int64   // ordinal × nrefs
	vers  []uint32  // ordinal -> version, bumped by every in-place Upsert; len = tuples
	// Sparse mode only (nil while every key equals its ordinal).
	pks []int64         // ordinal -> primary key
	pos map[int64]int32 // primary key -> ordinal
}

// maxOrdinals caps an index's tuples: ordinals are int32 in the sparse key
// map and in the serving caches.
const maxOrdinals = math.MaxInt32

// BuildResidentIndex scans the table once and pins every tuple's features
// and foreign keys (the latter resolve sub-dimension hops in a snowflake).
func BuildResidentIndex(t *storage.Table) (*ResidentIndex, error) {
	n := int(t.NumTuples())
	ix := &ResidentIndex{
		name:  t.Schema().Name,
		width: t.Schema().NumFeatures(),
		nrefs: t.Schema().NumKeys() - 1,
	}
	ix.feats = make([]float64, 0, n*ix.width)
	ix.subs = make([]int64, 0, n*ix.nrefs)
	ix.vers = make([]uint32, 0, n)
	sc := t.NewScanner()
	for sc.Next() {
		tp := sc.Tuple()
		pk := tp.PrimaryKey()
		if at, dup := ix.find(pk); dup {
			return nil, fmt.Errorf(
				"join: duplicate primary key %d in table %q: tuple at row %d has features %v, tuple at row %d has features %v",
				pk, ix.name, at, ix.view(at), len(ix.vers), tp.Features)
		}
		if err := ix.appendLocked(pk, tp.Keys[1:], tp.Features); err != nil {
			return nil, err
		}
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

// NumRefs returns the number of foreign-key columns per indexed tuple.
func (ix *ResidentIndex) NumRefs() int { return ix.nrefs }

// Len returns the number of indexed tuples.
func (ix *ResidentIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.vers)
}

// find returns the ordinal of pk. Caller holds mu (or owns the index).
func (ix *ResidentIndex) find(pk int64) (int, bool) {
	if ix.pos == nil {
		return int(pk), pk >= 0 && pk < int64(len(ix.vers))
	}
	i, ok := ix.pos[pk]
	return int(i), ok
}

// view returns ordinal i's features as a view into the arena. Caller holds
// mu (or owns the index).
func (ix *ResidentIndex) view(i int) []float64 {
	return ix.feats[i*ix.width : (i+1)*ix.width : (i+1)*ix.width]
}

// Lookup returns the features of the tuple with the given primary key, as
// a view into the feature arena: valid until the tuple is next upserted.
// Do not modify it.
func (ix *ResidentIndex) Lookup(pk int64) ([]float64, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	i, ok := ix.find(pk)
	if !ok {
		return nil, false
	}
	return ix.view(i), true
}

// Pos returns the ordinal of the tuple with the given primary key. Ordinals
// are stable: Upserts of existing keys keep them, and new keys always
// append.
func (ix *ResidentIndex) Pos(pk int64) (int, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.find(pk)
}

// At returns the primary key and features of the tuple with ordinal i
// (0 ≤ i < Len). The features are a view into the arena, valid until the
// tuple is next upserted.
func (ix *ResidentIndex) At(i int) (pk int64, feats []float64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pk = int64(i)
	if ix.pks != nil {
		pk = ix.pks[i]
	}
	return pk, ix.view(i)
}

// Row copies the features of the tuple with ordinal i into dst (length
// Width) and its sub-dimension keys into subs (length NumRefs), and returns
// their version, all under one read lock: the three are consistent however
// Upserts interleave. Either dst or subs may be nil. A version is 0 when
// the tuple was loaded or inserted, one more after every Upsert that
// replaced it.
func (ix *ResidentIndex) Row(i int, dst []float64, subs []int64) uint32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if dst != nil {
		copy(dst[:ix.width], ix.view(i))
	}
	if subs != nil {
		copy(subs[:ix.nrefs], ix.subs[i*ix.nrefs:(i+1)*ix.nrefs])
	}
	return ix.vers[i]
}

// SubAt returns foreign key r (0 ≤ r < NumRefs) of the tuple with ordinal
// i, as it is pinned now.
func (ix *ResidentIndex) SubAt(i, r int) int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.subs[i*ix.nrefs+r]
}

// Bytes returns the size of the index's arenas and, in sparse mode, its
// key list plus an estimate of the key map (a key and an ordinal per
// entry).
func (ix *ResidentIndex) Bytes() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return 8*cap(ix.feats) + 8*cap(ix.subs) + 4*cap(ix.vers) + 8*cap(ix.pks) + 12*len(ix.pos)
}

// Upsert installs the foreign keys and features for a primary key —
// overwriting the existing tuple in place and bumping its version, or
// appending a new tuple at the next ordinal. subs may be nil for a table
// without sub-dimension references.
func (ix *ResidentIndex) Upsert(pk int64, subs []int64, feats []float64) (isNew bool, err error) {
	if len(feats) != ix.width {
		return false, fmt.Errorf("join: upsert of key %d into %q has %d features, table has %d",
			pk, ix.name, len(feats), ix.width)
	}
	if len(subs) != ix.nrefs {
		return false, fmt.Errorf("join: upsert of key %d into %q has %d foreign keys, table has %d",
			pk, ix.name, len(subs), ix.nrefs)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if i, ok := ix.find(pk); ok {
		copy(ix.view(i), feats)
		copy(ix.subs[i*ix.nrefs:(i+1)*ix.nrefs], subs)
		ix.vers[i]++
		return false, nil
	}
	return true, ix.appendLocked(pk, subs, feats)
}

// appendLocked appends a tuple under a key the index does not hold,
// switching to sparse mode when the key is not the next ordinal. Caller
// holds mu (or owns the index).
func (ix *ResidentIndex) appendLocked(pk int64, subs []int64, feats []float64) error {
	n := len(ix.vers)
	if n >= maxOrdinals {
		return fmt.Errorf("join: table %q exceeds %d resident tuples", ix.name, maxOrdinals)
	}
	if ix.pos == nil && pk != int64(n) {
		size := max(n+1, cap(ix.vers)) // a build's whole table
		ix.pks = make([]int64, n, size)
		ix.pos = make(map[int64]int32, size)
		for i := range ix.pks {
			ix.pks[i] = int64(i)
			ix.pos[int64(i)] = int32(i)
		}
	}
	if ix.pos != nil {
		ix.pos[pk] = int32(n)
		ix.pks = append(ix.pks, pk)
	}
	ix.feats = append(ix.feats, feats...)
	ix.subs = append(ix.subs, subs...)
	ix.vers = append(ix.vers, 0)
	return nil
}
