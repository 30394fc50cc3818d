package join

import (
	"sync"

	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// ParallelChunkRows is the number of scanned fact tuples grouped into one
// probe chunk by RunParallel. Like every chunk-geometry constant it is
// independent of the worker count, so the match stream is cut identically
// no matter how many workers run (see internal/parallel).
const ParallelChunkRows = 512

// Match is one joined tuple delivered by RunParallel: the fact tuple (a
// copy owned by the match's chunk), the index of its R1 partner within the
// current block, and the indexes of its partners in the other direct
// dimensions (Runner.Resident). A Match — and the matches slice
// OnMatchChunk receives — stays valid until the chunk's OnChunkMerged has
// returned: the chunk's buffers go back to the pool only after its merge,
// so a fold may keep the slice in its state and the ordered merge read the
// partner indexes from it (the factorized GMM scatters its group sums
// there). Do not hold either past that call.
type Match struct {
	S   *storage.Tuple
	R1  int
	Res []int
}

// ParallelCallbacks drive RunParallel.
//
// OnBlockStart and OnBlockEnd run on the calling goroutine at a full
// barrier: no chunk of the previous (respectively current) block is in
// flight, so they may safely (re)fill shared per-block caches read by
// OnMatchChunk.
//
// NewState produces the per-chunk accumulator. OnMatchChunk is invoked once
// per chunk, on a worker goroutine (inline when workers <= 1), with that
// state and all of the chunk's matches in deterministic scan order, so a
// fold may batch its per-match work over the chunk. Chunks of one block
// partition the fact-table scan in order. OnChunkMerged runs on a single
// goroutine, strictly in chunk order, before the block's OnBlockEnd — fold
// the state into global accumulators there and recycle it.
type ParallelCallbacks struct {
	OnBlockStart  func(block []*storage.Tuple) error
	NewState      func() any
	OnMatchChunk  func(state any, matches []Match) error
	OnChunkMerged func(state any) error
	OnBlockEnd    func() error
}

// sChunk carries one chunk of raw scanned fact tuples to a probe worker,
// plus the backing storage for the matches the worker produces. Pooled.
type sChunk struct {
	tuples  []storage.Tuple
	n       int
	matches []Match
	resBuf  []int
	state   any
}

var sChunkPool = sync.Pool{New: func() any { return new(sChunk) }}

func getSChunk(rows, q int) *sChunk {
	c := sChunkPool.Get().(*sChunk)
	if cap(c.tuples) < rows {
		c.tuples = make([]storage.Tuple, rows)
	}
	c.tuples = c.tuples[:rows]
	if cap(c.matches) < rows {
		c.matches = make([]Match, 0, rows)
	}
	c.matches = c.matches[:0]
	if cap(c.resBuf) < rows*q {
		c.resBuf = make([]int, 0, rows*q)
	}
	c.resBuf = c.resBuf[:0]
	c.n = 0
	c.state = nil
	return c
}

func copyTupleInto(dst, src *storage.Tuple) {
	dst.Keys = append(dst.Keys[:0], src.Keys...)
	dst.Features = append(dst.Features[:0], src.Features...)
	dst.Target = src.Target
}

// RunParallel executes the same block-nested-loops star join as Run, but
// probes the dimension indexes over fact-tuple chunks on a pool of workers.
// The chunk geometry depends only on the data and chunkRows (<= 0 selects
// ParallelChunkRows), never on the worker count, and per-chunk results are
// merged in chunk order — so any downstream reduction sees a reduction
// order, and hence produces floating-point results, independent of
// `workers`. workers <= 1 runs the identical chunk structure inline on the
// calling goroutine (see parallel.Run).
func (r *Runner) RunParallel(workers, chunkRows int, cb ParallelCallbacks) error {
	if err := r.loadResident(); err != nil {
		return err
	}
	if chunkRows <= 0 {
		chunkRows = ParallelChunkRows
	}
	sp := r.spec
	q := len(r.resident) // positions a match carries beside R1's

	// blockIdx is the key index the workers probe. forEachBlock reuses it
	// between blocks, which is safe because every block ends with a full
	// barrier: no chunk is in flight when it is rebuilt, and the channel
	// hand-offs order the rebuild before any later probe.
	var blockIdx map[int64]int

	produce := func(f *parallel.Feed[*sChunk]) error {
		return r.forEachBlock(func(blk []*storage.Tuple, idx map[int64]int) error {
			blockIdx = idx
			if cb.OnBlockStart != nil {
				if err := cb.OnBlockStart(blk); err != nil {
					return err
				}
			}
			// Scan S, cutting the raw tuples into fixed-size chunks. The
			// probe itself happens on the workers.
			cur := getSChunk(chunkRows, q)
			sc := sp.S.NewScanner()
			for sc.Next() {
				copyTupleInto(&cur.tuples[cur.n], sc.Tuple())
				cur.n++
				if cur.n == chunkRows {
					if err := f.Emit(cur); err != nil {
						return err
					}
					cur = getSChunk(chunkRows, q)
				}
			}
			if err := sc.Err(); err != nil {
				return err
			}
			if cur.n > 0 {
				if err := f.Emit(cur); err != nil {
					return err
				}
			} else {
				sChunkPool.Put(cur)
			}
			// Block barrier: every chunk of this block is probed, consumed
			// and merged before the block structures are reused.
			return f.Barrier(cb.OnBlockEnd)
		})
	}

	work := func(c *sChunk) (*sChunk, error) {
		c.matches = c.matches[:0]
		c.resBuf = c.resBuf[:0]
		for i := 0; i < c.n; i++ {
			s := &c.tuples[i]
			base := len(c.resBuf)
			c.resBuf = c.resBuf[:base+q]
			i1, ok := r.probe(s, blockIdx, c.resBuf[base:])
			if !ok {
				c.resBuf = c.resBuf[:base]
				continue
			}
			c.matches = append(c.matches, Match{S: s, R1: i1, Res: c.resBuf[base : base+q : base+q]})
		}
		if cb.NewState != nil {
			c.state = cb.NewState()
		}
		if cb.OnMatchChunk != nil {
			if err := cb.OnMatchChunk(c.state, c.matches); err != nil {
				return nil, err
			}
		}
		return c, nil
	}

	merge := func(c *sChunk) error {
		var err error
		if cb.OnChunkMerged != nil {
			err = cb.OnChunkMerged(c.state)
		}
		c.state = nil
		sChunkPool.Put(c)
		return err
	}

	return parallel.Run(workers, produce, work, merge)
}
