package serve

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// dimCache is a bounded, exact LRU of per-dimension-tuple partial results,
// keyed by the tuple's primary key. An entry is one slot: the key, the
// value — one flat []float64 laid out by the engine (modelState.valueLen)
// — the feature slice it was computed from, and the slot numbers of its
// neighbours on an intrusive recency list. A map finds a key's slot;
// removed slots go on a free list, and an insert into a full cache reuses
// the least recently used slot. Nothing is sized by the capacity up
// front: memory follows occupancy.
//
// A value is immutable once put (it is a pure function of the model and
// the dimension tuple), so readers share it without copying: replacing or
// evicting an entry drops the slot's reference and never writes the old
// value. The map and slots are guarded by a mutex. Two goroutines that
// miss on the same key may both compute the value — the results are
// bit-identical, so whichever put lands last wins.
//
// Every entry records the feature slice it was computed from. The
// resident index replaces (never mutates) a tuple's slice on update, so
// slice identity is a per-key freshness token: a get whose caller holds a
// different slice than the entry was derived from is a miss. This closes
// the race where a predictor computes a partial from pre-update features
// and inserts it after the update's invalidation — the stale entry can
// land, but it can never be served again.
type dimCache struct {
	mu       sync.Mutex
	capacity int
	slots    []slot
	items    map[int64]int32
	// head and tail are the most and least recently used slots, free the
	// first removed slot (chained through next); -1 when there is none.
	head, tail, free int32
	valBytes         int // bytes of the live values

	hits   atomic.Uint64
	misses atomic.Uint64
}

type slot struct {
	key        int64
	val        []float64
	src        []float64 // the feature slice val was computed from
	prev, next int32
}

// slotBytes is one slot's size; mapEntryBytes estimates one map entry
// (key, slot number, padding). Both count toward bytes.
const (
	slotBytes     = int(unsafe.Sizeof(slot{}))
	mapEntryBytes = 16
)

// sameFeats reports whether two feature slices are the identical
// copy-on-write snapshot (zero-width features have no content to go
// stale).
func sameFeats(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func newDimCache(capacity int) *dimCache {
	if capacity < 1 {
		capacity = 1
	}
	return &dimCache{capacity: capacity, items: make(map[int64]int32), head: -1, tail: -1, free: -1}
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

// get returns the cached value for key, marking it most recently used.
// src must be the caller's current feature slice for the key: an entry
// derived from a different (stale) slice is a miss. The caller must not
// write the returned value.
func (c *dimCache) get(key int64, src []float64) ([]float64, bool) {
	c.mu.Lock()
	i, ok := c.items[key]
	var val []float64
	if ok = ok && sameFeats(c.slots[i].src, src); ok {
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

// put inserts a value computed from src, evicting the least recently used
// entry when full. The caller must not write val afterwards.
func (c *dimCache) put(key int64, val, src []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.items[key]
	switch {
	case ok:
		c.unlink(i)
	case len(c.items) >= c.capacity:
		i = c.tail
		c.unlink(i)
		delete(c.items, c.slots[i].key)
	case c.free >= 0:
		i = c.free
		c.free = c.slots[i].next
	default:
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
	}
	s := &c.slots[i]
	c.valBytes += 8 * (cap(val) - cap(s.val))
	s.key, s.val, s.src = key, val, src
	c.items[key] = i
	c.pushFront(i)
}

// remove drops the entry for key if present, reporting whether it existed.
// The streaming path calls this when a dimension tuple is updated, so
// exactly the cached partials derived from the stale tuple are discarded.
func (c *dimCache) remove(key int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.items[key]
	if !ok {
		return false
	}
	c.unlink(i)
	delete(c.items, key)
	s := &c.slots[i]
	c.valBytes -= 8 * cap(s.val)
	*s = slot{next: c.free}
	c.free = i
	return true
}

// size returns the number of cached entries and the bytes the cache
// holds: its live values, the slot slice and an estimate of the map.
func (c *dimCache) size() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.valBytes + cap(c.slots)*slotBytes + len(c.items)*mapEntryBytes
}

// counters returns the cumulative hit/miss counts.
func (c *dimCache) counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
