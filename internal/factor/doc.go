// Package factor is the strategy-agnostic sufficient-statistics operator
// layer shared by every trainer (M/S/F × GMM/NN) and by the planner's
// measured counterparts.
//
// The paper's three execution strategies differ only in how the joined
// relation is *accessed*, never in the statistics a model accumulates over
// it. This package owns the access paths, so a model family plugs in pure
// accumulator definitions and an EM/SGD driver. There is one constructor,
// Open, and it is the only place a plan.Strategy value selects code. It
// returns a Path, the opened access path with everything a driver asks of
// it already answered: the joined width; one grouped scan (ScanGroups —
// every path yields the same joined rows in the same order with a group
// end at every R1 block, so initialization and Block-mode mini-batches are
// shared); Parts, the *PartScan, exactly when the path is factorized; a
// Shuffle hook exactly when the row order is not fixed on disk; and Close.
// A trainer runs its factorized driver when Parts is set and its dense one
// over the grouped scan otherwise — no type assertion, no second look at
// the strategy. The join's block size is join.Spec.BlockPages for every
// path. The access paths and the operators over them:
//
//   - MaterializedSource reads the rows back from a materialized T and
//     rebuilds the R1-block boundaries from the materializer's per-block
//     counts; StreamedSource and PartScan re-join on the fly. Both
//     re-joining scans, and the materializer itself, run join.StreamWith —
//     the one row-assembly loop in the tree.
//   - RunRowPass / RunSGDPass — the chunked-parallel pass operators: rows
//     are cut into fixed-geometry chunks, each chunk folds into the
//     accumulator it carries on a worker, and accumulators merge strictly in
//     chunk order. The reduction is therefore bit-identical for every worker
//     count — including one, which parallel.Run executes inline: no pass
//     operator here has a sequential twin. RunSGDPass adds per-group barrier
//     hooks for Block-mode gradient steps.
//   - PartScan — the factorized access path: the block-nested-loops join
//     runner plus the partition the trainers factorize over (Direct: the
//     fact part and one part per direct dimension, as wide as its subtree —
//     the runner holds each direct dimension as a join.Arena of rows with
//     the sub-dimension features appended, so a snowflake is a star to the
//     trainers; P keeps the per-relation split for the benchmark harness's
//     per-node probes), with parallel per-arena-row cache fills
//     (FillCaches) over disjoint row grains and the chunked match stream
//     the factorized trainers drive their per-match accumulation through.
//     A chunked fold sees each chunk's matches at once, so it can batch
//     per-match kernels over the chunk.
//
// Both chunked operators follow internal/parallel's chunk lifecycle: the
// run owns the chunk objects, and a chunk's accumulator, of the caller's
// type A (PassHooks[A], join.ParallelCallbacks[A]), is a field of the chunk,
// built zeroed once per object. Merge folds it into the model's statistics
// and leaves it zero, because a later chunk refills the same object.
//
// A new model family (linear models, logistic regression, …) needs only
// its accumulators: the operators here already provide all three strategy
// access paths, deterministic parallelism included.
package factor
