// Package stream is the streaming-ingestion and incremental-maintenance
// subsystem: an append/update change feed over the fact and dimension
// tables of a star schema, plus incremental maintenance of the
// sufficient statistics that let a served model be refreshed from a batch
// of deltas in time proportional to the delta, not the dataset.
//
// The same observation that powers the paper's factorized trainers —
// work that depends only on a dimension tuple is done once per dimension
// tuple, not once per joined row — is what makes scoring a delta cheap:
// a batch of new fact tuples pays one cache fill per distinct dimension
// tuple it references, and a dimension-tuple update invalidates exactly
// the cached partials derived from that tuple.
//
// # Maintained statistics
//
//   - GMM sufficient statistics (GMMStats): the trainers' own
//     gmm.Moments over the whole joined row, about an origin (the model's
//     means at attach or rebaseline, saved in the checkpoint), so data far
//     from zero cancels nothing and rows absorbed under different refresh
//     generations add up. Their size is fixed by K and D — 2·K·(D + D²)
//     floats for the done and open halves, the origin, and the 4-byte
//     ordinal index per direct dimension tuple of the factor.Slots whose
//     rows hold a pass's scoring caches (the rows are freed when the pass
//     ends) — whatever the rows or tuples absorbed: incremental EM needs
//     no more (Neal & Hinton). The paper's per-tuple group sums pay off
//     within one training pass; kept for a stream's life they grew with
//     every tuple ever referenced. Step adds the halves and runs
//     gmm.Moments.Step, in O(K·D²).
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
// that rebuild on the next refresh, because the stored sums were
// folded with the old features.
//
// For an NN, Refresh warm-starts the factorized trainer (nn.Config.Init)
// from the served network and runs refreshEpochs SGD epochs (one, at
// learning rate 0.05) over base ∪ delta — equal to dense warm-start
// retraining on the union up to floating-point summation order, and
// bit-identical for every worker count.
//
// # Bit-identical incremental absorption
//
// An absorb scores like the factorized trainer: the scan resolves each new
// row's direct dimension tuples, cuts chunks and fills a tuple's scoring
// caches when the pass first meets it; workers score each chunk, form each
// joined row's deviations about the origin (fact features, then each
// direct group's features from the pass's caches) and fold them with
// gmm.Moments.FoldRows, the trainers' fold of the fact part. The per-chunk sums are
// added to the total, which is associative only at chunk boundaries — so
// chunks are cut at absolute row indexes (chunk i is rows [i·C, (i+1)·C),
// C = StatChunkRows), the one merge takes them in order, and the trailing
// partial chunk's sums are kept apart (open, beside done): a later absorb
// continues them row by row and adds them in once the chunk is complete.
// Every floating-point reduction order is therefore a function of the data
// alone: absorbing base then delta (in any number of batches, under any
// worker count) performs the same additions in the same order as one
// from-scratch pass over the union — the property the tests pin.
//
// A row is folded with the dimension features it is absorbed under, so a
// dimension update marks the statistics dirty and the next refresh
// rebaselines them.
package stream
