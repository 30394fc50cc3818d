package join

import (
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// ParallelChunkRows is the number of scanned fact tuples grouped into one
// probe chunk by RunParallel. Like every chunk-geometry constant it is
// independent of the worker count, so the match stream is cut identically
// no matter how many workers run (see internal/parallel).
const ParallelChunkRows = 512

// Match is one joined tuple delivered by RunParallel: the fact tuple (a
// copy held by the match's chunk), the index of its R1 partner within the
// current block, and the indexes of its partners in the other direct
// dimensions (Runner.Resident). A Match — and the matches slice
// OnMatchChunk receives — stays valid until the chunk's OnChunkMerged has
// returned: the producer refills a chunk object only after its merge (see
// parallel.Feed.Next), so a fold may keep the slice in its accumulator and
// the ordered merge read the partner indexes from it (the factorized GMM
// scatters its group sums there). Do not hold either past that call; a
// chunk and everything in it are dropped when the run ends.
type Match struct {
	S   *storage.Tuple
	R1  int
	Res []int
}

// ParallelCallbacks drive RunParallel over accumulators of type A.
//
// OnBlockStart and OnBlockEnd run on the calling goroutine at a full
// barrier: no chunk of the previous (respectively current) block is in
// flight, so they may safely (re)fill shared per-block caches read by
// OnMatchChunk.
//
// Every chunk object carries one accumulator as a field, which NewAcc
// builds zeroed when the run makes the object (nil NewAcc: A's zero value).
// OnMatchChunk is invoked once per chunk, on a worker goroutine (inline
// when workers <= 1), with the chunk's accumulator and all of its matches
// in deterministic scan order, so a fold may batch its per-match work over
// the chunk. Chunks of one block partition the fact-table scan in order.
// OnChunkMerged runs on a single goroutine, strictly in chunk order, before
// the block's OnBlockEnd: it folds the accumulator into global state and
// leaves it zero, since the chunk object — accumulator and all — is
// refilled by a later chunk.
type ParallelCallbacks[A any] struct {
	OnBlockStart  func(block []*storage.Tuple) error
	NewAcc        func() A
	OnMatchChunk  func(acc *A, matches []Match) error
	OnChunkMerged func(acc *A) error
	OnBlockEnd    func() error
}

// sChunk carries one chunk of scanned fact tuples to a probe worker and on
// to the merge: the tuples' keys and features copied into two flat slabs
// the tuples view, the matches the worker produces, and the accumulator
// they fold into.
type sChunk[A any] struct {
	tuples  []storage.Tuple
	n       int
	matches []Match
	resBuf  []int
	acc     A
}

// newSChunk makes a chunk of rows fact tuples with nk keys and d features
// each, whose matches carry q resident positions.
func newSChunk[A any](rows, nk, d, q int) *sChunk[A] {
	c := &sChunk[A]{
		tuples:  make([]storage.Tuple, rows),
		matches: make([]Match, 0, rows),
		resBuf:  make([]int, 0, rows*q),
	}
	keys, feats := make([]int64, rows*nk), make([]float64, rows*d)
	for i := range c.tuples {
		c.tuples[i].Keys = keys[i*nk : (i+1)*nk : (i+1)*nk]
		c.tuples[i].Features = feats[i*d : (i+1)*d : (i+1)*d]
	}
	return c
}

// RunParallel executes the same block-nested-loops star join as Run, but
// probes the dimension indexes over fact-tuple chunks on a pool of workers.
// The chunk geometry depends only on the data and chunkRows (<= 0 selects
// ParallelChunkRows), never on the worker count, and per-chunk results are
// merged in chunk order — so any downstream reduction sees a reduction
// order, and hence produces floating-point results, independent of
// `workers`. workers <= 1 runs the identical chunk structure inline on the
// calling goroutine (see parallel.Run).
func RunParallel[A any](r *Runner, workers, chunkRows int, cb ParallelCallbacks[A]) error {
	if err := r.loadResident(); err != nil {
		return err
	}
	if chunkRows <= 0 {
		chunkRows = ParallelChunkRows
	}
	sp := r.spec
	q := len(r.resident) // positions a match carries beside R1's
	nk, d := sp.S.Schema().NumKeys(), sp.S.Schema().NumFeatures()
	newChunk := func() *sChunk[A] {
		c := newSChunk[A](chunkRows, nk, d, q)
		if cb.NewAcc != nil {
			c.acc = cb.NewAcc()
		}
		return c
	}

	// blockIdx is the key index the workers probe. forEachBlock reuses it
	// between blocks, which is safe because every block ends with a full
	// barrier: no chunk is in flight when it is rebuilt, and the channel
	// hand-offs order the rebuild before any later probe.
	var blockIdx map[int64]int

	produce := func(f *parallel.Feed[*sChunk[A]]) error {
		return r.forEachBlock(func(blk []*storage.Tuple, idx map[int64]int) error {
			blockIdx = idx
			if cb.OnBlockStart != nil {
				if err := cb.OnBlockStart(blk); err != nil {
					return err
				}
			}
			// Scan S, cutting the raw tuples into fixed-size chunks. The
			// probe itself happens on the workers.
			var cur *sChunk[A] // taken when the chunk's first tuple arrives
			sc := sp.S.NewScanner()
			for sc.Next() {
				if cur == nil {
					cur = f.Next(newChunk)
					cur.n = 0
				}
				src, dst := sc.Tuple(), &cur.tuples[cur.n]
				copy(dst.Keys, src.Keys)
				copy(dst.Features, src.Features)
				dst.Target = src.Target
				cur.n++
				if cur.n == chunkRows {
					if err := f.Emit(cur); err != nil {
						return err
					}
					cur = nil
				}
			}
			if err := sc.Err(); err != nil {
				return err
			}
			if cur != nil {
				if err := f.Emit(cur); err != nil {
					return err
				}
			}
			// Block barrier: every chunk of this block is probed, consumed
			// and merged before the block structures are reused.
			return f.Barrier(cb.OnBlockEnd)
		})
	}

	work := func(c *sChunk[A]) (*sChunk[A], error) {
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
		if cb.OnMatchChunk != nil {
			if err := cb.OnMatchChunk(&c.acc, c.matches); err != nil {
				return nil, err
			}
		}
		return c, nil
	}

	merge := func(c *sChunk[A]) error {
		if cb.OnChunkMerged != nil {
			return cb.OnChunkMerged(&c.acc)
		}
		return nil
	}

	return parallel.Run(workers, produce, work, merge)
}
