package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// IOStats aggregates page traffic counters. LogicalReads counts every page
// a read moves onto: each page a sequential scan reads, each page UpdateAt
// rewrites, each point read (Get). PhysicalReads counts those read from the
// file — all but the point reads the pool served. A page served from a
// table's unflushed tail counts as neither. The paper's analytic cost
// formulas (§V-A) are stated in logical page reads of the block-nested-loops
// join, so both views are kept.
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

type poolKey struct {
	fileID int
	pageNo int64
}

type poolEntry struct {
	key  poolKey
	page *page
}

// BufferPool is a shared LRU cache of pages keyed by (file, page number),
// serving point reads (Table.Get) only: sequential scans and UpdateAt read
// the file directly and only add to the counters it keeps. It is safe for
// concurrent use.
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	entries  map[poolKey]*list.Element
	lru      *list.List // front = most recently used
	stats    IOStats
}

// NewBufferPool returns a pool holding at most capacity pages. A capacity of
// zero disables caching entirely (every logical read is physical).
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 0 {
		panic(fmt.Sprintf("storage: negative buffer pool capacity %d", capacity))
	}
	return &BufferPool{
		capacity: capacity,
		entries:  make(map[poolKey]*list.Element),
		lru:      list.New(),
	}
}

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() IOStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the counters.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = IOStats{}
}

// get returns the page (fileID, pageNo), loading it with load on a miss.
// The returned page must be treated as read-only by callers.
func (bp *BufferPool) get(fileID int, pageNo int64, load func(*page) error) (*page, error) {
	bp.mu.Lock()
	bp.stats.LogicalReads++
	key := poolKey{fileID, pageNo}
	if el, ok := bp.entries[key]; ok {
		bp.lru.MoveToFront(el)
		p := el.Value.(*poolEntry).page
		bp.mu.Unlock()
		return p, nil
	}
	bp.stats.PhysicalReads++
	bp.mu.Unlock()

	p := newPage()
	if err := load(p); err != nil {
		return nil, err
	}

	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.capacity == 0 {
		return p, nil
	}
	if el, ok := bp.entries[key]; ok {
		// Raced with another loader; use theirs.
		bp.lru.MoveToFront(el)
		return el.Value.(*poolEntry).page, nil
	}
	for bp.lru.Len() >= bp.capacity {
		back := bp.lru.Back()
		bp.lru.Remove(back)
		delete(bp.entries, back.Value.(*poolEntry).key)
	}
	bp.entries[key] = bp.lru.PushFront(&poolEntry{key: key, page: p})
	return p, nil
}

// noteRead records a page read straight from the file, past the cache.
func (bp *BufferPool) noteRead() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats.LogicalReads++
	bp.stats.PhysicalReads++
}

// noteWrite records a physical page write and invalidates any cached copy.
func (bp *BufferPool) noteWrite(fileID int, pageNo int64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats.PageWrites++
	key := poolKey{fileID, pageNo}
	if el, ok := bp.entries[key]; ok {
		bp.lru.Remove(el)
		delete(bp.entries, key)
	}
}

// invalidateFile drops every cached page of the file.
func (bp *BufferPool) invalidateFile(fileID int) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for el := bp.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*poolEntry)
		if e.key.fileID == fileID {
			bp.lru.Remove(el)
			delete(bp.entries, e.key)
		}
		el = next
	}
}
