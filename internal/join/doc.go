// Package join implements primary/foreign-key equi-join processing over the
// storage engine, in the three styles the paper compares:
//
//   - Materialize: compute S ⋈ R1 ⋈ … ⋈ Rq with a block-nested-loops join
//     and write the denormalized result T to disk (input to the M-* training
//     algorithms).
//   - Streaming: iterate the join block-by-block without materializing,
//     delivering fully concatenated feature vectors (input to the S-*
//     algorithms).
//   - Factorized: iterate the join block-by-block delivering the S tuple and
//     *references* to the matching dimension tuples, so the training
//     algorithm can reuse per-dimension computation (input to the F-*
//     algorithms).
//
// The block structure follows the paper's cost model (§V-A): the first
// dimension table is read once in blocks of BlockPages pages; for every
// block, S is scanned in full and probed against an in-memory hash of the
// block. Any further dimension tables (multi-way joins, §V-C) are resident:
// pinned once per runner in ResidentIndexes (DimPlan.BuildIndexes, one per
// distinct table), which matches the paper's experimental setup where only
// R1 grows. Spec.BlockPages is the only place a block size is set — no
// trainer or planner configuration carries another: all three styles cut
// their blocks by it (so Block-mode mini-batches coincide), and
// plan.Collect copies it into the statistics the planner prices from, so
// the pages estimated are the pages read.
//
// A snowflake is executed as a star over its direct dimensions. A
// sub-dimension tuple is functionally determined by its parent tuple, so
// the Runner resolves sub-dimension hops once per dimension tuple, through
// the same Resolver walk serving and streaming use (Resolver.Subtree) —
// each resident direct tuple's when the indexes load, each R1 tuple's as
// its block is read — and holds every direct dimension as one Arena: a flat
// []float64 of rows as wide as the dimension's whole subtree, in the spec's
// depth-first-preorder layout. R1's block is one such arena, reused across
// blocks and passes. A fact tuple costs one probe per direct dimension,
// Match.Pos and OnMatch's pos hold one arena row per direct dimension, and
// fact ++ those rows is the joined row. A dimension tuple whose reference
// dangles gets no row, which drops exactly the fact tuples that would have
// reached the dangling hop. The price: a sub-dimension tuple's features are
// copied into (and, in the factorized trainers, recomputed for) every
// parent tuple that references it — cheap while a direct dimension tuple
// serves several fact rows, the planner's call when it serves about one.
//
// Emission order is deterministic — R blocks in append
// order, S scan order within a block — and identical across the three
// styles, which is what makes the M/S/F training algorithms produce
// identical models.
//
// ResidentIndex is the one resident form of a dimension table: one flat
// feature arena per table, indexed by tuple ordinal, with no key map while
// the keys are 0…n−1. The Runner owns its indexes and never upserts them,
// so its probe reads them without their lock. Serving and streaming share
// theirs with Upserts: an (ordinal, version) pair names one tuple value —
// Upsert overwrites in place and bumps the version — and Row copies a
// tuple's features and sub-keys out with its version under the index's
// lock, for readers racing Upserts; Lookup and At return views, for callers
// that exclude them. Resolver.Subtree is the one walk of a direct tuple's
// subtree on top of Row: it follows the sub-keys each Row read, so the
// version vector it returns names the features it copied, and serving
// caches a direct tuple's partial under that vector.
//
// RunParallel's chunks belong to the run (see internal/parallel). A chunk
// holds its copies of the fact tuples, the matches its probe worker
// produces and the caller's accumulator; OnChunkMerged folds the
// accumulator and leaves it zero before the producer refills the chunk.
package join
