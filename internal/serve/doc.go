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
//	           resident dimension indexes (internal/join), per-dimension-
//	           tuple partial results (NN layer-1 partial pre-activations,
//	           GMM quadratic-form contributions) are memoized in a bounded
//	           LRU, and request batches fan out across the internal/parallel
//	           worker pool in fixed-size chunks.
//	Server   — an HTTP JSON API: POST /v1/models/{name}/predict,
//	           GET /v1/models, GET /healthz, and GET /statsz and
//	           GET /metrics rendered from one metrics.Registry of sections.
//
// Determinism contract: chunk geometry never depends on the worker count,
// per-row outputs land at their row index, and every cached partial is a
// pure function of (model, dimension tuple) — so a batch's predictions are
// bit-identical for every EngineConfig.NumWorkers value and for every cache
// state (cold, warm, or evicted-and-refilled). Factorized scoring is exact
// versus in-process dense evaluation (nn.Network.Predict, gmm.Model.LogProb)
// up to floating-point summation order; the round-trip tests pin both
// properties.
package serve
