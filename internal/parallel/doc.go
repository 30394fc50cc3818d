// Package parallel is the shared execution engine that lets the trainers
// split one pass over the fact tuples across worker goroutines without
// giving up the paper's exactness guarantee.
//
// # Determinism contract
//
// Floating-point addition is not associative, so a naive parallel reduction
// would make the trained model depend on goroutine scheduling and on the
// worker count. This engine removes both dependencies:
//
//   - The producer cuts the stream into chunks whose boundaries depend only
//     on the data (fixed chunk row counts, block boundaries), never on the
//     number of workers.
//   - Each chunk is processed against its own accumulator, which it
//     carries, by whichever worker picks it up; workers share nothing.
//   - Chunk accumulators are merged into the global state in chunk order,
//     by a single goroutine, regardless of the order in which workers
//     finish.
//
// The sequence of floating-point operations applied to any accumulator is
// therefore a pure function of the input stream and the chunk geometry.
// Training with Workers(1) — which runs the identical chunked structure
// inline, with no goroutines — produces bit-for-bit the same model as
// training with any other worker count. The determinism tests in
// internal/gmm and internal/nn assert exactly this. Inline execution is
// Run's job and nobody else's: a caller hands every pass to Run (RunRange
// does, and so does every pass operator of internal/factor) and never
// branches on the worker count to hand-roll a sequential copy of it.
// RunRange carries no reduction at all (its grains write disjoint slots),
// and the package imports nothing of this module: what the work is, or
// costs, is its callers' business (TestInternalPackagesAreReached).
//
// # Chunk ownership
//
// A chunk is the unit of ownership: its rows and its accumulator travel
// together from the producer through a worker to the ordered merge. The
// producer takes the chunk object to fill from Feed.Next — fresh for the
// run's first window+1 emissions, then the one emitted window+1 emissions
// earlier, whose merge the emission window guarantees has returned — so a
// run holds at most window+1 chunk objects (one, inline) and drops them
// when it ends. A chunk's accumulator is built zeroed once per object, and
// the merge that folds it leaves it zero again: the next fill starts from
// what the merge left. No pool recycles anything across runs, so a warm
// pass allocates the same count every time, under the race detector too.
//
// # Barriers
//
// Run's producer may call Feed.Barrier to wait until every chunk emitted so
// far has been worked and merged, and then run a function on the producer
// goroutine while the pool is quiescent. The trainers use barriers at
// R1-block boundaries: per-block dimension caches are refilled, and Block-
// mode gradient steps are applied, only while no worker is in flight. All
// synchronization is by channel hand-off, so the code is clean under the
// race detector.
package parallel
