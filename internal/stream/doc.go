// Package stream is the streaming-ingestion and incremental-maintenance
// subsystem: an append/update change feed over the fact and dimension
// tables of a star schema, plus incremental maintenance of the factorized
// sufficient statistics that let a served model be refreshed from a batch
// of deltas in time proportional to the delta, not the dataset.
//
// The same observation that powers the paper's factorized trainers —
// work that depends only on a dimension tuple is done once per dimension
// tuple, not once per joined row — is what makes incremental maintenance
// cheap: a batch of new fact tuples only perturbs the per-group statistics
// it touches, and a dimension-tuple update invalidates exactly the cached
// partials derived from that tuple.
//
// # Maintained statistics
//
//   - GMM sufficient statistics (GMMStats), over the factorized trainers'
//     partition: the fact part plus one part per DIRECT dimension. A group
//     is a direct dimension tuple; its features (its own, then its
//     subtree's) are re-resolved through the resident indexes when needed,
//     so a sub-key repoint needs no bookkeeping. The statistics are the
//     trainers' own gmm.Moments, about an origin (the model's means at
//     attach or rebaseline, saved in the checkpoint), so data far from zero
//     cancels nothing and rows absorbed under different refresh generations
//     add up. Per direct dimension a gmm.GroupSums holds, by tuple ordinal,
//     w_g = Σ_{n∈g} γ_n and, for a full covariance, Σ_{n∈g} γ_n·(x_S − o_S).
//     Cross blocks between two direct dimensions are folded per absorbed
//     row beside the fact block, as the trainer folds them per match (tuple
//     pairs hardly repeat). Step folds every group once — O(groups) — and
//     runs gmm.Moments.Step; the stream does no statistics arithmetic.
//   - GMM QuadCache contributions: the E-step over delta rows scores
//     through gmm.Scorer with per-dimension-tuple core.QuadCache fills —
//     once per distinct direct dimension tuple the delta references.
//   - NN layer-1 partial pre-activations: maintained by the serving engine
//     as per-dimension-tuple LRU entries; a dimension update surgically
//     invalidates exactly the entries keyed by the updated tuple
//     (serve.Engine.ApplyDimUpdate), and the factorized warm-start refresh
//     recomputes them once per dimension tuple per parameter state.
//
// # Refresh semantics
//
// For a GMM, Refresh performs one incremental EM step: the E-step runs
// over the rows absorbed since the last refresh only (cost ∝ delta), its
// statistics fold into the maintained sums, and the M-step produces the
// new model from the folded totals. When the maintained statistics are
// fresh (first refresh after attach or after a rebaseline), this is
// EXACTLY one EM iteration over base ∪ delta warm-started at the current
// model — and the accumulator geometry below makes it bit-identical to
// recomputing the statistics from scratch over the union, for every
// worker count. Across consecutive refreshes the responsibilities of
// previously absorbed rows are not revised (they were computed under the
// model current at absorb time) — the classic incremental-EM scheme of
// Neal & Hinton; Policy.RebaselineEvery bounds the staleness by
// periodically rebuilding the statistics from scratch under the current
// model. A dimension-tuple update marks the statistics dirty and forces
// that rebuild on the next refresh, because the stored γ-sums were
// computed against the old features.
//
// For an NN, Refresh warm-starts the factorized trainer (nn.Config.Init)
// from the served network and runs Policy.NNEpochs SGD epochs over
// base ∪ delta — equal to dense warm-start retraining on the union up to
// floating-point summation order, and bit-identical for every worker
// count.
//
// # Bit-identical incremental absorption
//
// An absorb follows the factorized trainer's shape: the scan cuts the new
// rows into chunks, workers score them and sum each chunk's fact-block
// moments and cross blocks, and one merge takes the chunks strictly in
// order. It adds every row's γ and γ·(x_S − o_S) straight into its groups'
// slots, row after row, so those sums never see a chunk or batch boundary.
// The fact-block moments and cross blocks are summed per chunk and then
// added to the total, which is associative only at chunk boundaries — so
// chunks are cut at absolute row indexes (chunk i is rows [i·C, (i+1)·C),
// C = StatChunkRows) and the trailing partial chunk's sums are kept apart:
// a later absorb continues them row by row and adds them in once the chunk
// is complete. Every floating-point reduction order is therefore a
// function of the data alone: absorbing base then delta (in any number of
// batches, under any worker count) performs the same additions in the same
// order as one from-scratch pass over the union — the property the tests
// pin.
package stream
