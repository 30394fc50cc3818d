package factor

import (
	"time"

	"factorml/internal/core"
	"factorml/internal/join"
	"factorml/internal/parallel"
)

// PartScan is the factorized access path: the block-nested-loops join
// runner paired with the partition the trainers factorize over. Factorized
// trainers fill per-dimension-tuple caches through FillCaches over the
// runner's arenas (parallel, disjoint slots), then stream the matches in
// fixed chunks on the worker pool (RunChunks) and fold model-specific
// accumulators per chunk.
//
// The runner holds every direct dimension's tuples as arena rows with
// their subtree's features appended, so the trainers' partition is Direct —
// the fact part plus one part per direct dimension, as wide as its subtree.
// P, the per-relation partition [S, R1, …, Rq] of the same joined vector,
// feeds only the benchmark harness's per-node probes: serving, like
// training, caches per direct subtree. On a star the two coincide.
type PartScan struct {
	Runner *join.Runner
	P      core.Partition
	Direct core.Partition

	// Pass labels events emitted to the installed pass Observer (see
	// SetObserver): trainers set it once per loop ("fgmm.em", "fnn.sgd",
	// ...). Unused with no observer installed.
	Pass string
}

// NewPartScan prepares the runner and partition for a spec (see newRunner
// for blockPages).
func NewPartScan(spec *join.Spec, blockPages int) (*PartScan, error) {
	runner, err := newRunner(spec, blockPages)
	if err != nil {
		return nil, err
	}
	dims := []int{spec.S.Schema().NumFeatures()}
	for _, r := range spec.Rs {
		dims = append(dims, r.Schema().NumFeatures())
	}
	direct := append([]int{dims[0]}, spec.DirectWidths()...)
	return &PartScan{Runner: runner, P: core.NewPartition(dims), Direct: core.NewPartition(direct)}, nil
}

// Scan streams the fully concatenated joined rows — the initialization
// pass a factorized trainer shares with the dense strategies, so every
// strategy starts from the identical model.
func (ps *PartScan) Scan(onRow RowFn) error { return ps.ScanGroups(onRow, nil) }

// ScanGroups is Scan with the R1-block boundaries (see GroupedScan).
func (ps *PartScan) ScanGroups(onRow RowFn, onGroupEnd func() error) error {
	m := observePass(ps.Pass, "scan", 1)
	if m != nil {
		inner := onRow
		onRow = func(x []float64, y float64) error {
			m.rows.Add(1)
			return inner(x, y)
		}
	}
	return m.done(scanJoin(ps.Runner, onRow, onGroupEnd))
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
	return m.done(join.RunParallel(ps.Runner, workers, join.ParallelChunkRows, cb))
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
