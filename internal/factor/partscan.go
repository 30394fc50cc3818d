package factor

import (
	"math/rand"
	"time"

	"factorml/internal/core"
	"factorml/internal/join"
	"factorml/internal/parallel"
)

// PartScan is the one access path every trainer drives: a join runner
// paired with the partition the trainers compute over. Trainers fill
// per-dimension-tuple caches through FillCaches over the runner's arenas
// (parallel, disjoint slots), then stream the matches in fixed chunks on
// the worker pool (RunChunks) and fold model-specific accumulators per
// chunk.
//
// Direct is that partition. On the factorized path it is the fact part
// plus one part per direct dimension, as wide as its subtree: the runner
// holds every direct dimension's tuples as arena rows with their subtree's
// features appended, so a snowflake is a star to the trainers. On a path
// that factorizes no dimension (Materialized, Streaming) it is the one-part
// partition [D]: every match is its joined row, and there is nothing to
// fill, flush or sum per tuple (q = 0). P, the per-relation partition
// [S, R1, …, Rq] of the same joined vector, feeds only the benchmark
// harness's per-node probes: serving, like training, caches per direct
// subtree. On a star the two coincide.
type PartScan struct {
	P      core.Partition
	Direct core.Partition

	// Pass labels events emitted to the installed pass Observer (see
	// SetObserver): trainers set it once per loop ("gmm.em", "nn.sgd", ...).
	// Unused with no observer installed.
	Pass string

	// Shuffle installs a fresh permutation of R1's rows for the passes
	// that follow — the paper's §VI per-epoch key permutation for SGD. It
	// is nil when the row order is fixed on disk (a materialized T).
	Shuffle func(rng *rand.Rand)

	runner  *join.Runner
	release func() error
}

// NewPartScan prepares the factorized path for a spec (see ownSpec for
// blockPages).
func NewPartScan(spec *join.Spec, blockPages int) (*PartScan, error) {
	runner, err := join.NewRunner(ownSpec(spec, blockPages))
	if err != nil {
		return nil, err
	}
	ps := newPartScan(spec, runner, true)
	ps.Shuffle = runner.Shuffle
	return ps, nil
}

// Scan streams the fully concatenated joined rows, the same rows in the
// same order on every path — the initialization pass, so every strategy
// starts from the identical model.
func (ps *PartScan) Scan(onRow RowFn) error {
	m := observePass(ps.Pass, "scan", 1)
	if m != nil {
		inner := onRow
		onRow = func(x []float64, y float64) error {
			m.rows.Add(1)
			return inner(x, y)
		}
	}
	return m.done(scanJoin(ps.runner, onRow))
}

// Close releases anything opening the path materialized.
func (ps *PartScan) Close() error {
	if ps.release == nil {
		return nil
	}
	return ps.release()
}

// RunChunks streams one pass over ps with the matches cut into fixed-size
// chunks worked on the pool and merged in chunk order, each chunk carrying
// an accumulator of type A (see join.RunParallel for the determinism
// contract and join.ParallelCallbacks for the accumulator's lifecycle).
func RunChunks[A any](ps *PartScan, workers int, cb join.ParallelCallbacks[A]) error {
	m := observePass(ps.Pass, "fold", workers)
	if m != nil && cb.OnMatchChunk != nil {
		innerChunk, innerMerged := cb.OnMatchChunk, cb.OnChunkMerged
		cb.OnMatchChunk = func(acc *A, matches []join.Match) error {
			t0 := time.Now()
			err := innerChunk(acc, matches)
			m.folded(t0, len(matches))
			return err
		}
		if innerMerged != nil {
			cb.OnChunkMerged = func(acc *A) error {
				t0 := time.Now()
				err := innerMerged(acc)
				m.merged(t0)
				return err
			}
		}
	}
	return m.done(join.RunParallel(ps.runner, workers, join.ParallelChunkRows, cb))
}

// FillCaches fills one per-tuple cache slot for every row of a direct
// dimension's arena on the worker pool: rows are cut into fixed grains and
// the slots are disjoint, so the cache contents are identical for every
// worker count. What a fill costs is the caller's to charge: its model's
// per-tuple fill unit (internal/core) × rows.N.
func (ps *PartScan) FillCaches(workers int, rows join.Arena, fill func(i int, x []float64) error) error {
	m := observePass(ps.Pass, "cache_fill", workers)
	if m != nil {
		m.rows.Store(int64(rows.N))
	}
	return m.done(parallel.RunRange(workers, rows.N, func(s, e int) error {
		for i := s; i < e; i++ {
			if err := fill(i, rows.Row(i)); err != nil {
				return err
			}
		}
		return nil
	}))
}
