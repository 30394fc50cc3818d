package factor

import (
	"time"

	"factorml/internal/parallel"
)

// PassHooks is the model-specific accumulator of one chunked pass: NewAcc
// makes (or recycles) a private accumulator, Fold folds a chunk of rows
// into it (start is the global index of the chunk's first row; ys is nil
// for target-less passes), and Merge folds the accumulator into the
// model's running statistics. Merge is always invoked strictly in chunk
// order, so the floating-point reduction is identical for every worker
// count.
type PassHooks struct {
	NewAcc func() any
	Fold   func(acc any, start int, rows, ys []float64, n int) error
	Merge  func(acc any) error
}

// RunRowPass executes one deterministic chunked-parallel pass over a plain
// row scan (no targets, no group structure) — the shape of every GMM EM
// pass. Fold sees contiguous row blocks (one call per chunk, not per row)
// for every worker count. name labels the pass for the installed Observer
// (see SetObserver); with no observer it is unused.
func RunRowPass(name string, workers, d int, scan func(onRow RowFn) error, hooks PassHooks) error {
	grouped := func(onRow RowFn, _ func() error) error { return scan(onRow) }
	return runPass(name, workers, d, false, grouped, false, nil, hooks)
}

// RunSGDPass executes one chunked-parallel pass over a grouped scan,
// carrying per-row targets — the shape of every NN epoch. When cutAtGroups
// is set, each group boundary flushes the current chunk and runs onGroup at
// a full barrier (no worker holds stale parameters across it) — the
// Block-mode gradient step. With cutAtGroups unset the group boundaries are
// ignored and chunks cut only at the fixed chunk size.
func RunSGDPass(name string, workers, d int, scan GroupedScan, cutAtGroups bool, onGroup func() error, hooks PassHooks) error {
	return runPass(name, workers, d, true, scan, cutAtGroups, onGroup, hooks)
}

// runPass is the shared engine of RunRowPass and RunSGDPass: rows are
// copied into pooled fixed-size chunks, folded on the pool and merged in
// chunk order — parallel.Run, which with one worker runs the same
// structure inline. When a pass observer is installed the hooks are wrapped
// with its accounting and one PassEvent is emitted after the pass.
func runPass(name string, workers, d int, withY bool, scan GroupedScan, cutAtGroups bool, onGroup func() error, hooks PassHooks) error {
	m := observePass(name, "fold", workers)
	if m != nil {
		inner := hooks
		hooks.Fold = func(acc any, start int, rs, ys []float64, n int) error {
			t0 := time.Now()
			err := inner.Fold(acc, start, rs, ys, n)
			m.folded(t0, n)
			return err
		}
		hooks.Merge = func(acc any) error {
			t0 := time.Now()
			err := inner.Merge(acc)
			m.merged(t0)
			return err
		}
	}
	return m.done(parallel.Run(workers,
		func(f *parallel.Feed[*parallel.RowChunk]) error {
			cur := parallel.GetRowChunk(0, d, withY)
			next := 0
			flush := func() error {
				if cur.N == 0 {
					return nil
				}
				if err := f.Emit(cur); err != nil {
					return err
				}
				cur = parallel.GetRowChunk(next, d, withY)
				return nil
			}
			err := scan(
				func(x []float64, y float64) error {
					copy(cur.Rows[cur.N*d:(cur.N+1)*d], x)
					if withY {
						cur.Ys[cur.N] = y
					}
					cur.N++
					next++
					if cur.N == parallel.DefaultChunkRows {
						return flush()
					}
					return nil
				},
				func() error {
					if !cutAtGroups {
						return nil
					}
					if err := flush(); err != nil {
						return err
					}
					// Barrier: every emitted chunk is merged, and no worker
					// reads shared state while onGroup mutates it.
					return f.Barrier(onGroup)
				})
			if err != nil {
				return err
			}
			if cur.N > 0 {
				return f.Emit(cur)
			}
			parallel.PutRowChunk(cur)
			return nil
		},
		func(c *parallel.RowChunk) (any, error) {
			acc := hooks.NewAcc()
			if err := hooks.Fold(acc, c.Start, c.Rows, c.Ys, c.N); err != nil {
				return nil, err
			}
			parallel.PutRowChunk(c)
			return acc, nil
		},
		hooks.Merge))
}
