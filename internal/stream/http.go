package stream

import (
	"encoding/json"
	"errors"
	"net/http"

	"factorml/internal/api"
	"factorml/internal/metrics"
)

// maxIngestBody bounds an ingest request body (32 MiB).
const maxIngestBody = 32 << 20

// Handler returns the HTTP handler of the change feed, meant to be
// mounted at POST /v1/ingest by serve.WithStream. The wire
// format is the JSON encoding of Batch:
//
//	{"facts": [{"sid": 9, "fks": [3], "features": [0.1, 0.2], "target": 1.5}],
//	 "dims":  [{"table": "items", "rid": 3, "features": [0.7, 0.8, 0.9]}]}
//
// The response is the IngestResult, including whether the batch tripped
// an automatic refresh. Admission control runs first: when the bounded
// ingest queue (Options.MaxQueuedIngest) is full, the batch is rejected
// with 429 ingest_overloaded before its body is read — no partial
// effects, safe to retry after the Retry-After hint. Validation failures
// answer 400 ingest_invalid with no partial effects; server-side
// failures (storage I/O, a failing triggered refresh) answer 500
// internal and may have applied the batch.
func (s *Stream) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				"ingest takes POST, got %s", r.Method)
			return
		}
		// The queue bound counts admitted-but-unfinished batches: every
		// admitted batch proceeds to completion (rejection happens only
		// here, before any byte of the body is read), so overload turns
		// into fast 429s instead of an unbounded pile-up on the stream
		// mutex.
		if !s.ingestLim.TryAcquire() {
			s.ingestRejections.Add(1)
			api.WriteErrorDetails(w, http.StatusTooManyRequests, api.CodeIngestOverloaded,
				map[string]any{"max_queued": s.maxQueued},
				"ingest queue is full (%d batches queued); retry later", s.maxQueued)
			return
		}
		defer s.ingestLim.Release()
		var b Batch
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&b); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				api.WriteErrorDetails(w, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge,
					map[string]any{"limit_bytes": tooBig.Limit}, "batch body over %d bytes", tooBig.Limit)
				return
			}
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidRequest, "decoding batch: %v", err)
			return
		}
		if len(b.Facts) == 0 && len(b.Dims) == 0 {
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidRequest, "batch has no facts and no dims")
			return
		}
		res, err := s.IngestCtx(r.Context(), b)
		if err != nil {
			// Validation rejections are the client's fault and applied
			// nothing; anything else is a server-side failure that may
			// have landed after rows were applied — tell the client not
			// to blindly retry.
			if IsValidationError(err) {
				api.WriteError(w, http.StatusBadRequest, api.CodeIngestInvalid, "%v", err)
			} else {
				api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
			}
			return
		}
		api.WriteJSON(w, http.StatusOK, res)
	})
}

// RefreshHandler returns the on-demand refresh handler, meant to be
// mounted at POST /v1/refresh by serve.WithStream: it
// folds everything ingested so far into every attached model and
// responds with the RefreshResult.
func (s *Stream) RefreshHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				"refresh takes POST, got %s", r.Method)
			return
		}
		res, err := s.RefreshCtx(r.Context())
		if err != nil {
			api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
			return
		}
		api.WriteJSON(w, http.StatusOK, res)
	})
}

// Sections returns the stream's telemetry sections for serve.WithStream:
// "stream" (Counters), "planner" (PlannerDecisions) and, with durability
// on, "wal" (WALStats). Each reads snapshot state only, adding no locks to
// the ingest path.
func (s *Stream) Sections() []metrics.Section {
	secs := []metrics.Section{
		metrics.NewSection("stream", s.Counters),
		metrics.NewSection("planner", s.PlannerDecisions),
	}
	if s.wal != nil {
		secs = append(secs, metrics.NewSection("wal", s.WALStats))
	}
	return secs
}

// Samples emits the counters — including the bounded ingest queue's depth
// and rejection count — as factorml_stream_* samples.
func (c Counters) Samples(emit metrics.Emit) {
	emit.Counter("factorml_stream_batches_total", "Ingest batches applied.", float64(c.Batches))
	emit.Counter("factorml_stream_facts_total", "Fact rows ingested.", float64(c.FactsIngested))
	emit.Counter("factorml_stream_dim_inserts_total", "Dimension tuples inserted.", float64(c.DimInserts))
	emit.Counter("factorml_stream_dim_updates_total", "Dimension tuples updated in place.", float64(c.DimUpdates))
	emit.Counter("factorml_stream_refreshes_total", "Model refreshes run.", float64(c.Refreshes))
	emit.Counter("factorml_stream_auto_refreshes_total", "Refreshes triggered by the refresh-rows policy.", float64(c.AutoRefreshes))
	emit.Counter("factorml_stream_rebaselines_total", "GMM statistics rebuilds from scratch.", float64(c.Rebaselines))
	emit.Counter("factorml_stream_checkpoints_total", "Committed WAL snapshots.", float64(c.Checkpoints))
	emit.Counter("factorml_stream_ingest_rejections_total", "Batches rejected by the bounded ingest queue.", float64(c.IngestRejections))
	emit.Gauge("factorml_stream_pending_rows", "Fact rows ingested since the last refresh.", float64(c.PendingRows))
	emit.Gauge("factorml_stream_ingest_queue_depth", "Admitted-but-unfinished ingest batches.", float64(c.IngestQueueDepth))
	emit.Gauge("factorml_stream_attached_models", "Models under incremental maintenance.", float64(c.AttachedModels))
}

// Samples emits each decision as a factorml_planner_strategy gauge and,
// for a GMM, its maintained statistics' footprint.
func (ds Decisions) Samples(emit metrics.Emit) {
	for _, d := range ds {
		model := [2]string{"model", d.Model}
		emit.Gauge("factorml_planner_strategy",
			"Cost-based strategy decision each attached model's next refresh reuses (value is always 1; the decision is in the labels).",
			1, model, [2]string{"kind", d.Kind}, [2]string{"strategy", d.Strategy})
		if fp := d.Statistics; fp != nil {
			emit.Gauge("factorml_stream_gmm_stats_rows", "Fact rows absorbed into the model's maintained GMM statistics.", float64(fp.Rows), model)
			emit.Gauge("factorml_stream_gmm_stats_bytes", "Bytes the maintained GMM statistics retain.", float64(fp.Bytes), model)
		}
	}
}
