package factor

import (
	"time"

	"factorml/internal/parallel"
)

// PassHooks is the model-specific accumulator of one chunked pass, of type
// A. Every chunk object of the pass carries one as a field: NewAcc builds
// it zeroed, once per object (nil NewAcc: A's zero value). Fold folds a
// chunk of rows into it (start is the global index of the chunk's first
// row; ys is nil for target-less passes), and Merge folds it into the
// model's running statistics and leaves it zero — a later chunk refills the
// same object. Merge is always invoked strictly in chunk order, so the
// floating-point reduction is identical for every worker count.
type PassHooks[A any] struct {
	NewAcc func() A
	Fold   func(acc *A, start int, rows, ys []float64, n int) error
	Merge  func(acc *A) error
}

// RunRowPass executes one deterministic chunked-parallel pass over a plain
// row scan (no targets, no group structure) — the shape of every GMM EM
// pass. Fold sees contiguous row blocks (one call per chunk, not per row)
// for every worker count. name labels the pass for the installed Observer
// (see SetObserver); with no observer it is unused.
func RunRowPass[A any](name string, workers, d int, scan func(onRow RowFn) error, hooks PassHooks[A]) error {
	grouped := func(onRow RowFn, _ func() error) error { return scan(onRow) }
	return runPass(name, workers, d, false, grouped, false, nil, hooks)
}

// RunSGDPass executes one chunked-parallel pass over a grouped scan,
// carrying per-row targets — the shape of every NN epoch. When cutAtGroups
// is set, each group boundary flushes the current chunk and runs onGroup at
// a full barrier (no worker holds stale parameters across it) — the
// Block-mode gradient step. With cutAtGroups unset the group boundaries are
// ignored and chunks cut only at the fixed chunk size.
func RunSGDPass[A any](name string, workers, d int, scan GroupedScan, cutAtGroups bool, onGroup func() error, hooks PassHooks[A]) error {
	return runPass(name, workers, d, true, scan, cutAtGroups, onGroup, hooks)
}

// rowChunk is one chunk of a row pass: n rows of width d copied out of the
// scan, row-major, from global row index start, with one target per row
// when the pass carries them, and the accumulator the rows fold into.
type rowChunk[A any] struct {
	start, n int
	rows, ys []float64
	acc      A
}

// runPass is the shared engine of RunRowPass and RunSGDPass: rows are
// copied into fixed-size chunks, folded on the pool and merged in chunk
// order — parallel.Run, which with one worker runs the same structure
// inline. The chunk objects come from the run (parallel.Feed.Next). When a
// pass observer is installed the hooks are wrapped with its accounting and
// one PassEvent is emitted after the pass.
func runPass[A any](name string, workers, d int, withY bool, scan GroupedScan, cutAtGroups bool, onGroup func() error, hooks PassHooks[A]) error {
	m := observePass(name, "fold", workers)
	if m != nil {
		inner := hooks
		hooks.Fold = func(acc *A, start int, rs, ys []float64, n int) error {
			t0 := time.Now()
			err := inner.Fold(acc, start, rs, ys, n)
			m.folded(t0, n)
			return err
		}
		hooks.Merge = func(acc *A) error {
			t0 := time.Now()
			err := inner.Merge(acc)
			m.merged(t0)
			return err
		}
	}
	newChunk := func() *rowChunk[A] {
		c := &rowChunk[A]{rows: make([]float64, parallel.DefaultChunkRows*d)}
		if hooks.NewAcc != nil {
			c.acc = hooks.NewAcc()
		}
		if withY {
			c.ys = make([]float64, parallel.DefaultChunkRows)
		}
		return c
	}
	return m.done(parallel.Run(workers,
		func(f *parallel.Feed[*rowChunk[A]]) error {
			var cur *rowChunk[A] // taken when the chunk's first row arrives
			next := 0
			flush := func() error {
				if cur == nil {
					return nil
				}
				c := cur
				cur = nil
				return f.Emit(c)
			}
			err := scan(
				func(x []float64, y float64) error {
					if cur == nil {
						cur = f.Next(newChunk)
						cur.start, cur.n = next, 0
					}
					copy(cur.rows[cur.n*d:(cur.n+1)*d], x)
					if withY {
						cur.ys[cur.n] = y
					}
					cur.n++
					next++
					if cur.n == parallel.DefaultChunkRows {
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
			return flush()
		},
		func(c *rowChunk[A]) (*A, error) { return &c.acc, hooks.Fold(&c.acc, c.start, c.rows, c.ys, c.n) },
		hooks.Merge))
}
