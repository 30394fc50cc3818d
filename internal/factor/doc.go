// Package factor is the strategy-agnostic sufficient-statistics operator
// layer shared by every trainer (M/S/F × GMM/NN) and by the planner's
// measured counterparts.
//
// The paper's three execution strategies differ only in how the joined
// relation is *accessed*, never in the statistics a model accumulates over
// it. This package owns the access paths, so a model family plugs in pure
// accumulator definitions and one EM/SGD driver. There is one constructor,
// Open, and it is the only place a plan.Strategy value selects code. It
// returns a PartScan for every strategy: the one access path, with
// everything a driver asks of it already answered — the partition it
// trains over (Direct), one initialization scan (Scan: every path yields
// the same joined rows in the same order, so every strategy starts from
// the same model), the chunked match pass (RunChunks), per-tuple cache
// fills (FillCaches), a Shuffle hook exactly when the row order is not
// fixed on disk, and Close. The strategies differ only in the set of
// direct dimensions the path factorizes — all of them (F) or none (M, S) —
// and Open alone makes that choice. A driver never asks which strategy it
// was handed: with no dimension factorized its partition is the one-part
// [D] and it has no caches to fill, no slot sums and nothing to flush
// (q = 0). The join's block size is join.Spec.BlockPages on every path.
//
//   - The runners (internal/join). F's re-joins and hands each match over
//     with one arena row per direct dimension; S's re-joins and gathers
//     each match's dimension rows into its fact part, so the match is the
//     joined row; M's reads the materialized T back, one sequential scan
//     whose blocks are the materializer's per-block counts, empty blocks
//     included. All three cut the same blocks, so Block-mode mini-batches
//     coincide. MaterializedSource and StreamedSource are the M and join
//     scans on their own; every joined-row scan runs join.StreamWith — the
//     one row-assembly loop in the tree.
//   - RunChunks — the chunked-parallel pass operator: the matches are cut
//     into fixed-geometry chunks, each chunk folds into the accumulator it
//     carries on a worker, and accumulators merge strictly in chunk order.
//     A block end flushes the chunk in flight and runs at a full barrier.
//     The reduction is therefore bit-identical for every worker count —
//     including one, which parallel.Run executes inline: no pass operator
//     here has a sequential twin. A chunked fold sees each chunk's matches
//     at once, so it can batch per-match kernels over the chunk.
//   - FillCaches — parallel per-arena-row cache fills over disjoint row
//     grains, for the factorized dimensions. The runner holds each direct
//     dimension as a join.Arena of rows with the sub-dimension features
//     appended, so a snowflake is a star to the trainers; P keeps the
//     per-relation split for the benchmark harness's per-node probes.
//   - Slots — the one map from tuple ordinal to per-tuple state: a row
//     carved, zeroed, at the tuple's first touch, from a buffer sized
//     before the pass, so no row moves while a pass reads it. F-GMM's
//     group sums (folded in ordinal order, ByOrdinal), F-NN's δ⁰ sums
//     (flushed in first-touch order, ByTouch) and the stream's per-pass
//     scoring caches (whose ordinal index outlives the pass) are its rows.
//
// RunChunks follows internal/parallel's chunk lifecycle: the run owns the
// chunk objects, and a chunk's accumulator, of the caller's type A
// (join.ParallelCallbacks[A]), is a field of the chunk, built zeroed once
// per object. The merge folds it into the model's statistics and leaves it
// zero, because a later chunk refills the same object.
//
// A new model family (linear models, logistic regression, …) needs only
// its accumulators and one driver: the operators here already provide all
// three strategy access paths, deterministic parallelism included.
package factor
