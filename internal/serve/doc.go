// Package serve is the factorized inference subsystem: it turns models
// trained by the gmm/nn packages into a persistent, queryable service while
// carrying the paper's core trick — do dimension-tuple work once, not once
// per joined row — from training into prediction.
//
// Three layers:
//
//	Registry — named, versioned GMM/NN models persisted as blobs in the
//	           storage catalog directory; models saved by one process are
//	           loaded on boot by the next.
//	Engine   — batched prediction over normalized fact tuples without
//	           materializing the join: foreign keys are resolved against
//	           resident dimension indexes (internal/join), per-direct-
//	           dimension-tuple partial results (NN layer-1 partial
//	           pre-activations, GMM quadratic-form contributions) are
//	           memoized in a bounded LRU, and request batches fan out across
//	           the internal/parallel worker pool in fixed-size chunks.
//	Server   — an HTTP JSON API: POST /v1/models/{name}/predict,
//	           GET /v1/models, GET /healthz, and GET /statsz and
//	           GET /metrics rendered from one metrics.Registry of sections.
//
// A snowflake is served as a star over its direct dimensions, the
// partition the factorized trainers and the stream's refresh use: the fact
// part, then one part per direct dimension as wide as its subtree. Each
// (model, direct dimension) has one cache keyed by the direct tuple's
// ordinal; a value is computed from the subtree's features in preorder,
// read by join.Resolver.Subtree, and its freshness token is the subtree's
// version vector from the same walk. Every resident tuple carries a version
// an Upsert bumps, and a tuple's version fixes its sub-keys, so the vector
// changes exactly when a tuple the subtree reaches — or which tuples it
// reaches — changes: a dimension update at any level makes exactly the
// entries above it miss, and no stale entry is ever served. On a star every
// subtree is one tuple and the token is its version.
//
// Determinism contract: chunk geometry never depends on the worker count,
// per-row outputs land at their row index, and every cached partial is a
// pure function of (model, subtree tuples) — so a batch's predictions are
// bit-identical for every EngineConfig.NumWorkers value and for every cache
// state (cold, warm, or evicted-and-refilled). Factorized scoring is exact
// versus in-process dense evaluation (nn.Network.Predict, gmm.Model.LogProb)
// up to floating-point summation order; the round-trip tests pin both
// properties.
package serve
