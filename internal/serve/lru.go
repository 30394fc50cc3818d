package serve

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// dimCache is a bounded, exact LRU of partial results per direct dimension
// tuple, keyed by the tuple's ordinal in its resident index
// (join.ResidentIndex). A value covers the tuple's whole subtree: the
// engine computes it from the subtree's features in preorder
// (join.Resolver.Subtree). An entry is one slot: the ordinal, the version
// of the direct tuple the value was computed from, the value — one flat
// []float64 laid out by the engine (modelState.valueLen) — and the slot
// numbers of its neighbours on an intrusive recency list. The versions of
// the subtree's other tuples, in preorder, sit in a flat arena beside the
// slots, stride entries per slot (none on a star, where every subtree is
// one tuple). A map finds an ordinal's slot; removed slots go on a free
// list, and an insert into a full cache reuses the least recently used
// slot and its arena stride. Nothing is sized by the capacity up front:
// memory follows occupancy.
//
// A value is immutable once put (it is a pure function of the model and
// the subtree's tuples), so readers share it without copying: replacing or
// evicting an entry drops the slot's reference and never writes the old
// value. The map, slots and arena are guarded by a mutex. Two goroutines
// that miss on the same ordinal may both compute the value — the results
// are bit-identical, so whichever put lands last wins.
//
// The resident index bumps a tuple's version whenever it overwrites the
// tuple (sub-keys included), so the subtree's version vector is the
// freshness token: a get with any other vector is a miss. Each version in
// it fixes its tuple's sub-keys, so the vector fixes which tuples the
// subtree reaches, not only their values — a repoint to another tuple of
// equal version still changes the vector, through the parent's version.
// This also closes the race where a predictor computes a partial from
// pre-update tuples and inserts it after the update: the stale entry can
// land, but it can never be served again.
type dimCache struct {
	mu       sync.Mutex
	capacity int
	slots    []slot
	items    map[int32]int32
	// vers holds slot i's descendant versions at vers[i*stride:(i+1)*stride].
	vers   []uint32
	stride int
	// head and tail are the most and least recently used slots, free the
	// first removed slot (chained through next); -1 when there is none.
	head, tail, free int32
	valBytes         int // bytes of the live values

	hits   atomic.Uint64
	misses atomic.Uint64
}

type slot struct {
	ord        int32
	ver        uint32 // the direct tuple's version val was computed from
	val        []float64
	prev, next int32
}

// slotBytes is one slot's size (40 bytes on 64-bit platforms);
// mapEntryBytes estimates one map entry (an ordinal and a slot number).
// Both count toward bytes, as do the arena's versions.
const (
	slotBytes     = int(unsafe.Sizeof(slot{}))
	mapEntryBytes = 8
)

// newDimCache returns an empty cache for values over subtrees of nodes
// tuples.
func newDimCache(capacity, nodes int) *dimCache {
	if capacity < 1 {
		capacity = 1
	}
	return &dimCache{capacity: capacity, stride: nodes - 1, items: make(map[int32]int32), head: -1, tail: -1, free: -1}
}

// desc returns slot i's descendant versions in the arena.
func (c *dimCache) desc(i int32) []uint32 {
	return c.vers[int(i)*c.stride : int(i+1)*c.stride]
}

// unlink takes slot i out of the recency list.
func (c *dimCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront makes slot i the most recently used.
func (c *dimCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// get returns the cached value for ordinal ord, marking it most recently
// used. vers must be the subtree's current version vector (preorder, the
// direct tuple's first): an entry computed from any other is a miss. The
// caller must not write the returned value.
func (c *dimCache) get(ord int32, vers []uint32) ([]float64, bool) {
	c.mu.Lock()
	i, ok := c.items[ord]
	var val []float64
	if ok = ok && c.slots[i].ver == vers[0] && slices.Equal(c.desc(i), vers[1:]); ok {
		c.unlink(i)
		c.pushFront(i)
		val = c.slots[i].val
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// put inserts a value computed from the subtree of tuple ord at version
// vector vers, evicting the least recently used entry when full. The
// caller must not write val afterwards.
func (c *dimCache) put(ord int32, vers []uint32, val []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.items[ord]
	switch {
	case ok:
		c.unlink(i)
	case len(c.items) >= c.capacity:
		i = c.tail
		c.unlink(i)
		delete(c.items, c.slots[i].ord)
	case c.free >= 0:
		i = c.free
		c.free = c.slots[i].next
	default:
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
		c.vers = append(c.vers, vers[1:]...)
	}
	s := &c.slots[i]
	c.valBytes += 8 * (cap(val) - cap(s.val))
	s.ord, s.ver, s.val = ord, vers[0], val
	copy(c.desc(i), vers[1:])
	c.items[ord] = i
	c.pushFront(i)
}

// remove drops the entry for ordinal ord if present, reporting whether it
// existed. The streaming path calls this when a dimension tuple is updated,
// so exactly the cached partials derived from the stale tuple are
// discarded.
func (c *dimCache) remove(ord int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.items[ord]
	if !ok {
		return false
	}
	c.unlink(i)
	delete(c.items, ord)
	s := &c.slots[i]
	c.valBytes -= 8 * cap(s.val)
	*s = slot{next: c.free}
	c.free = i
	return true
}

// size returns the number of cached entries and the bytes the cache
// holds: its live values, the slot slice, the version arena and an
// estimate of the map.
func (c *dimCache) size() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.valBytes + cap(c.slots)*slotBytes + 4*cap(c.vers) + len(c.items)*mapEntryBytes
}

// counters returns the cumulative hit/miss counts.
func (c *dimCache) counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
