package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"factorml/internal/api"
	"factorml/internal/metrics"
	"factorml/internal/monitor"
	"factorml/internal/trace"
)

// maxPredictBody bounds a predict request body (32 MiB).
const maxPredictBody = 32 << 20

// Server is the HTTP front end over a Registry and an Engine, built whole
// by NewServer: every endpoint and every telemetry section is in place
// when it returns (only readiness changes afterwards, via SetReady). The
// surface is split into the unversioned control plane and the versioned
// data plane (see internal/api):
//
//	GET    /healthz                  — liveness + model count + readiness flag
//	GET    /readyz                   — readiness (503 not_ready until SetReady)
//	GET    /statsz                   — every telemetry section as one JSON document
//	GET    /metrics                  — the same sections plus HTTP instruments, Prometheus text (with WithMetrics)
//	GET    /v1/models                — list registered models
//	GET    /v1/models/{name}         — one model's metadata (incl. lineage)
//	GET    /v1/models/{name}/health  — drift/staleness verdict (with the engine's monitor)
//	DELETE /v1/models/{name}         — unregister and delete a model
//	POST   /v1/models/{name}/predict — score a batch of normalized rows
//	POST   /v1/ingest                — streaming deltas (with WithStream)
//	POST   /v1/refresh               — fold ingested deltas into the models (with WithStream)
//
// /statsz and /metrics render one metrics.Registry of sections: the
// engine's Stats (at the top level of /statsz), uptime, "build", and —
// when their subsystems are on — "batching", "trace", "health" and the
// stream's sections. Every non-2xx response is the structured
// api.Envelope; 429/503 carry Retry-After.
type Server struct {
	reg    *Registry
	eng    *Engine
	start  time.Time
	mux    *http.ServeMux
	ready  atomic.Bool
	limits Limits

	// predictLims hands out per-model in-flight limiters (nil when
	// Limits.MaxInFlightPerModel is 0).
	predictLims *modelLimiters

	// batchers coalesces concurrent predict requests per model (nil when
	// Limits.BatchWindow is 0).
	batchers *batcherSet

	// mreg holds the telemetry sections and live instruments. The HTTP
	// instruments exist only with WithMetrics and are updated with atomics
	// only — the registry lock is never taken on the request path.
	mreg        *metrics.Registry
	withMetrics bool
	httpReqs    *metrics.CounterVec   // {endpoint, code}
	httpLat     *metrics.HistogramVec // {endpoint}
	rejections  *metrics.CounterVec   // {endpoint, reason}

	// tracer assembles per-request traces (nil without WithTracer);
	// logger writes structured access/error logs (nil without WithLogger).
	tracer *trace.Tracer
	logger *slog.Logger

	// ingest, refresh and streamSections are the streaming subsystem's
	// endpoints and telemetry (all nil without WithStream).
	ingest, refresh http.Handler
	streamSections  []metrics.Section
}

// Option customizes NewServer.
type Option func(*Server)

// WithLimits installs admission control (see Limits). The ingest-queue
// bound is enforced by the streaming subsystem; it is carried here so
// one Limits value configures the whole surface.
func WithLimits(l Limits) Option {
	return func(s *Server) { s.limits = l }
}

// WithTracer installs a request tracer: every response gains an
// X-Request-Id (and traceparent) header, sampled requests assemble a
// span tree across handler → admission → engine fan-out → cache
// lookups, the flight recorder is exported at GET /debug/traces and
// GET /debug/traces/slow, and the tracer's counters become the "trace"
// section.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithLogger installs an access logger (nil logs nothing); request lines
// carry the same trace_id as the X-Request-Id header and /debug/traces.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.logger = slog.New(trace.LogHandler(l.Handler()))
		}
	}
}

// WithMetrics mounts the registry's Prometheus exposition at GET /metrics
// and instruments every endpoint with request counters, latency
// histograms and admission-rejection counters. Hot-path updates are
// atomic adds on pre-created children — no new locks.
func WithMetrics() Option {
	return func(s *Server) { s.withMetrics = true }
}

// WithStream mounts a streaming subsystem: ingest at POST /v1/ingest,
// refresh at POST /v1/refresh, and its sections in /statsz and /metrics.
// Without it both endpoints answer 503 stream_disabled.
func WithStream(ingest, refresh http.Handler, sections ...metrics.Section) Option {
	return func(s *Server) { s.ingest, s.refresh, s.streamSections = ingest, refresh, sections }
}

// NewServer builds the whole server. The engine's registry is used for
// the model endpoints, and the engine's health monitor (Engine.SetMonitor,
// set before this call) serves GET /v1/models/{name}/health and the
// "health" section. The server starts ready; a boot sequence that wants a
// not-ready window serves BootingHandler until construction finishes (see
// cmd/serve).
func NewServer(eng *Engine, opts ...Option) *Server {
	s := &Server{reg: eng.Registry(), eng: eng, start: time.Now(), mux: http.NewServeMux(), mreg: metrics.NewRegistry()}
	s.ready.Store(true)
	for _, opt := range opts {
		opt(s)
	}
	s.predictLims = newModelLimiters(s.limits.MaxInFlightPerModel)
	s.mreg.Add(
		metrics.NewSection("", eng.Stats),
		metrics.NewSection("", func() uptime { return uptime{time.Since(s.start).Seconds()} }),
		metrics.NewSection("build", CurrentBuild),
	)
	if s.limits.BatchWindow > 0 {
		s.batchers = newBatcherSet(eng, s.limits.BatchWindow, s.limits.MaxBatchRows)
		s.batchers.sizeHist = s.mreg.HistogramVec("factorml_batch_size",
			"Rows per coalesced engine batch, by model.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, "model")
		s.mreg.Add(metrics.NewSection("batching", s.batchers.stats))
	}
	if s.tracer != nil {
		s.mreg.Add(metrics.NewSection("trace", s.tracer.Stats))
		h := s.tracer.DebugHandler()
		s.mux.Handle("GET /debug/traces", h)
		s.mux.Handle("GET /debug/traces/slow", h)
	}
	if mon := s.Monitor(); mon != nil {
		s.mreg.Add(metrics.NewSection("health", mon.HealthAll))
	}
	s.mreg.Add(s.streamSections...)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /v1/models", s.handleListModels)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleGetModel)
	s.mux.HandleFunc("GET /v1/models/{name}/health", s.handleModelHealth)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleDeleteModel)
	s.mux.HandleFunc("POST /v1/models/{name}/predict", s.handlePredict)
	s.mux.Handle("POST /v1/ingest", orStreamDisabled(s.ingest))
	s.mux.Handle("POST /v1/refresh", orStreamDisabled(s.refresh))
	s.mux.HandleFunc("/", s.handleFallback)
	if s.withMetrics {
		s.mux.Handle("GET /metrics", s.mreg.Handler())
		s.httpReqs = s.mreg.CounterVec("factorml_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code")
		s.httpLat = s.mreg.HistogramVec("factorml_http_request_duration_seconds",
			"HTTP request latency in seconds, by endpoint.", nil, "endpoint")
		s.rejections = s.mreg.CounterVec("factorml_admission_rejections_total",
			"Requests rejected by admission control before any work was admitted.", "endpoint", "reason")
	}
	return s
}

// orStreamDisabled is h, or — on a server built without WithStream — a
// handler answering 503 stream_disabled.
func orStreamDisabled(h http.Handler) http.Handler {
	if h != nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeStreamDisabled,
			"streaming ingestion is not enabled on this server")
	})
}

// Tracer returns the request tracer installed by WithTracer (nil
// without one), so a debug listener can mount the same flight recorder
// off the data-plane port.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// SetReady flips the readiness state reported by /readyz and /healthz.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Metrics returns the registry behind /metrics (nil without
// WithMetrics), so callers can register application metrics that render
// in the same exposition.
func (s *Server) Metrics() *metrics.Registry {
	if !s.withMetrics {
		return nil
	}
	return s.mreg
}

// Monitor returns the engine's health monitor (nil without one).
func (s *Server) Monitor() *monitor.Monitor { return s.eng.mon.Load() }

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// endpointLabel maps a ServeMux pattern to a stable metric label.
var endpointLabels = map[string]string{
	"GET /healthz":                   "healthz",
	"GET /readyz":                    "readyz",
	"GET /statsz":                    "statsz",
	"GET /metrics":                   "metrics",
	"GET /v1/models":                 "models_list",
	"GET /v1/models/{name}":          "model_get",
	"GET /v1/models/{name}/health":   "model_health",
	"DELETE /v1/models/{name}":       "model_delete",
	"POST /v1/models/{name}/predict": "predict",
	"POST /v1/ingest":                "ingest",
	"POST /v1/refresh":               "refresh",
	"GET /debug/traces":              "debug_traces",
	"GET /debug/traces/slow":         "debug_traces_slow",
}

// ServeHTTP implements http.Handler. With a tracer installed, every
// request is assigned an X-Request-Id (the trace ID, adopted from an
// incoming W3C traceparent when present); sampled requests assemble a
// trace whose root span is renamed to the stable endpoint label once
// routing has resolved it, and land in the flight recorder at Finish.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.httpReqs == nil && s.tracer == nil && s.logger == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	var tr *trace.Trace
	if s.tracer != nil {
		ctx, t, reqID := s.tracer.StartRequest(r.Context(), r.Method+" "+r.URL.Path, r.Header.Get("traceparent"))
		tr = t
		w.Header().Set("X-Request-Id", reqID)
		if tr != nil {
			w.Header().Set("traceparent", tr.Traceparent())
		}
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	endpoint, ok := endpointLabels[r.Pattern]
	if !ok {
		endpoint = "other"
	}
	if s.httpReqs != nil {
		s.httpReqs.With(endpoint, strconv.Itoa(rec.status)).Inc()
		s.httpLat.With(endpoint).Observe(elapsed.Seconds())
	}
	if tr != nil {
		tr.SetName(endpoint)
		tr.Finish(rec.status)
	}
	if s.logger != nil {
		lvl := slog.LevelInfo
		if rec.status >= 500 {
			lvl = slog.LevelError
		}
		s.logger.Log(r.Context(), lvl, "http_request",
			"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
			"status", rec.status, "duration_ms", float64(elapsed.Microseconds())/1e3)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) { api.WriteJSON(w, status, v) }

// knownPaths are the routes the fallback distinguishes a wrong-method
// hit (405) from an unknown route (404) on. Predict and model paths are
// matched by prefix.
var knownPaths = map[string]bool{
	"/healthz": true, "/readyz": true, "/statsz": true, "/metrics": true,
	"/v1/models": true, "/v1/ingest": true, "/v1/refresh": true,
}

// handleFallback unifies the mux's built-in plain-text 404/405 responses
// into the structured envelope: a known path hit with an unregistered
// method answers 405 method_not_allowed, anything else 404 not_found.
func (s *Server) handleFallback(w http.ResponseWriter, r *http.Request) {
	if knownPaths[r.URL.Path] || strings.HasPrefix(r.URL.Path, "/v1/models/") {
		api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method %s is not allowed for %s", r.Method, r.URL.Path)
		return
	}
	api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"ready":          s.ready.Load(),
		"models":         s.reg.Len(),
		"dimensions":     s.eng.DimensionTables(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeNotReady,
			"server is loading models; not ready to serve")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "models": s.reg.Len()})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	doc, err := s.mreg.Statsz()
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "rendering /statsz: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.reg.List()})
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, ok := s.reg.Get(name)
	if !ok {
		api.WriteError(w, http.StatusNotFound, api.CodeModelNotFound, "no model %q", name)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleModelHealth serves the monitor's verdict for one model: 503
// monitoring_disabled without a monitor, 404 for a model the registry
// does not hold, and an "unmonitored" verdict for a registered model
// the monitor has no baseline for.
func (s *Server) handleModelHealth(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	mon := s.Monitor()
	if mon == nil {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeMonitoringDisabled,
			"model health monitoring is not enabled on this server")
		return
	}
	info, ok := s.reg.Get(name)
	if !ok {
		api.WriteError(w, http.StatusNotFound, api.CodeModelNotFound, "no model %q", name)
		return
	}
	h, ok := mon.Health(name)
	if !ok {
		h = monitor.Health{
			Model: name, Kind: string(info.Kind), Version: info.Version,
			Verdict: monitor.VerdictUnmonitored,
			Reasons: []string{"model is not attached to the health monitor"},
		}
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Delete(name); err != nil {
		if IsUnknownModel(err) {
			api.WriteError(w, http.StatusNotFound, api.CodeModelNotFound, "%v", err)
			return
		}
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// predictRequest is the POST /v1/models/{name}/predict body.
type predictRequest struct {
	Rows []predictRowJSON `json:"rows"`
}

type predictRowJSON struct {
	Fact []float64 `json:"fact"`
	FKs  []int64   `json:"fks"`
}

// rejectOverloaded answers a 429, which carries api's one Retry-After
// hint, and counts the rejection.
func (s *Server) rejectOverloaded(w http.ResponseWriter, endpoint, code string, details map[string]any, format string, args ...any) {
	if s.rejections != nil {
		s.rejections.With(endpoint, code).Inc()
	}
	api.WriteErrorDetails(w, http.StatusTooManyRequests, code, details, format, args...)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Admission first, before a byte of the body is read: overload is
	// rejected with zero work admitted, never mid-batch. The admission
	// decision is a root-level span so a traced rejection (always kept by
	// the flight recorder's error retention) shows where the request died.
	_, asp := trace.Start(r.Context(), "admission")
	asp.SetAttr("model", name)
	if lim := s.predictLims.get(name); lim != nil {
		if !lim.TryAcquire() {
			asp.SetBool("admitted", false)
			asp.Fail(api.CodePredictOverloaded)
			asp.End()
			s.rejectOverloaded(w, "predict", api.CodePredictOverloaded,
				map[string]any{"model": name, "max_in_flight": s.limits.MaxInFlightPerModel},
				"model %q has %d predict requests in flight; retry later", name, s.limits.MaxInFlightPerModel)
			return
		}
		defer lim.Release()
	}
	asp.SetBool("admitted", true)
	asp.End()
	binary := isBinaryContentType(r.Header.Get("Content-Type"))
	bufs := getPredictBuffers()
	defer putPredictBuffers(bufs)
	var rows []Row
	if binary {
		buf := bytes.NewBuffer(bufs.body[:0])
		_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxPredictBody))
		bufs.body = buf.Bytes()[:0] // retain grown capacity for reuse
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				api.WriteErrorDetails(w, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge,
					map[string]any{"limit_bytes": tooBig.Limit}, "request body over %d bytes", tooBig.Limit)
				return
			}
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidRequest, "reading request: %v", err)
			return
		}
		if err := decodeBinaryRequest(buf.Bytes(), bufs); err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidRequest, "decoding binary request: %v", err)
			return
		}
		rows = bufs.rows
	} else {
		var req predictRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPredictBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				api.WriteErrorDetails(w, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge,
					map[string]any{"limit_bytes": tooBig.Limit}, "request body over %d bytes", tooBig.Limit)
				return
			}
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidRequest, "decoding request: %v", err)
			return
		}
		if len(req.Rows) == 0 {
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidRequest, "request has no rows")
			return
		}
		bufs.rows = resized(bufs.rows, len(req.Rows))
		for i, rr := range req.Rows {
			bufs.rows[i] = Row{Fact: rr.Fact, FKs: rr.FKs}
		}
		rows = bufs.rows
	}
	// Score: through the batcher when coalescing is on and the request is
	// small enough to benefit (a request at or over the batch cap would
	// flush alone anyway — it goes straight to the engine with its own
	// context), otherwise directly into the pooled result buffer.
	var preds []Prediction
	var info ModelInfo
	var err error
	if s.batchers != nil && (s.limits.MaxBatchRows <= 0 || len(rows) < s.limits.MaxBatchRows) {
		preds, info, err = s.batchers.submit(name, rows)
	} else {
		bufs.preds = resized(bufs.preds, len(rows))
		preds = bufs.preds
		info, err = s.eng.PredictIntoCtx(r.Context(), name, rows, preds)
	}
	if err != nil {
		switch {
		case IsUnknownModel(err):
			api.WriteError(w, http.StatusNotFound, api.CodeModelNotFound, "%v", err)
		case IsIncompatibleModel(err):
			api.WriteError(w, http.StatusBadRequest, api.CodeModelIncompatible, "%v", err)
		default:
			api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		}
		return
	}
	if binary {
		bufs.out = appendBinaryResponse(bufs.out[:0], info, preds)
		w.Header().Set("Content-Type", BinaryContentType)
	} else {
		bufs.out = appendPredictResponse(bufs.out[:0], info, preds)
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bufs.out)
}

// isBinaryContentType reports whether ct selects the binary predict wire
// format (parameters after a ';' are ignored).
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == BinaryContentType
}

// BootingHandler answers for a server that is still constructing its
// real handler (loading the registry, pinning dimension tables,
// attaching models): /healthz reports alive-but-not-ready, and
// everything else answers 503 not_ready with Retry-After — so a process
// can open its listener before the (potentially long) boot completes
// and load balancers see an honest readiness signal instead of refused
// connections.
func BootingHandler() http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]any{
			"status":         "booting",
			"ready":          false,
			"uptime_seconds": time.Since(start).Seconds(),
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeNotReady,
			"server is loading models; not ready to serve")
	})
	return mux
}
