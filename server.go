package factorml

import (
	"fmt"
	"net/http"
	"slices"

	"factorml/internal/join"
	"factorml/internal/monitor"
	"factorml/internal/serve"
	"factorml/internal/storage"
	"factorml/internal/stream"
	"factorml/internal/trace"
)

// serverOptions collects what the ServerOption functions configure.
type serverOptions struct {
	engineCfg   ServeConfig
	limits      Limits
	withStream  bool
	fact        string
	pol         StreamPolicy
	withMetrics bool
	withTracing bool
	traceCfg    TraceConfig
	logger      *Logger
	withMonitor bool
	monCfg      MonitorConfig
}

// ServerOption configures NewServer.
type ServerOption func(*serverOptions)

// WithEngineConfig tunes the prediction engine (worker pool size,
// dimension-cache capacity). The zero ServeConfig is the default.
func WithEngineConfig(cfg ServeConfig) ServerOption {
	return func(o *serverOptions) { o.engineCfg = cfg }
}

// WithStream wires a live change feed into the server: every compatible
// registered model is attached for incremental maintenance, POST
// /v1/ingest accepts StreamBatch JSON, POST /v1/refresh folds the
// ingested delta into every attached model, dimension updates make exactly
// the serving-cache entries whose subtree they touch miss, refreshed models are
// republished (and served) without a restart, and /statsz gains "stream"
// and "planner" sections. fact names the fact table, and the join the
// server scores and maintains is the one the catalog records for it — the
// join training ran over: the dimension tables passed to NewServer are
// only checked against it (see DB.FactTable), and a permuted or wrong list
// is refused with ErrDimsMismatch.
//
// A registered model that does not fit this star schema — wrong joined
// width, or an NN over a target-less fact table — is left un-attached
// and keeps serving its saved parameters; Server.Stream().Attached()
// reports which models are under maintenance.
func WithStream(fact string, pol StreamPolicy) ServerOption {
	return func(o *serverOptions) { o.withStream = true; o.fact = fact; o.pol = pol }
}

// WithLimits switches on admission control: predictions over the
// per-model in-flight cap answer 429 predict_overloaded, ingest batches
// over the bounded queue answer 429 ingest_overloaded — both with a
// Retry-After hint, both rejected before any work is admitted, so an
// overloaded server degrades into fast structured rejections and every
// admitted batch still runs to completion (the bit-identical-results
// guarantee is never traded away mid-batch).
func WithLimits(l Limits) ServerOption {
	return func(o *serverOptions) { o.limits = l }
}

// WithTracing switches on end-to-end request tracing: every response
// carries an X-Request-Id header, a sampled fraction of requests
// (TraceConfig.SampleFraction) records a span tree covering admission,
// engine micro-batch fan-out, per-dimension cache lookups and — with
// WithStream — ingest/refresh phases, and a bounded in-memory flight
// recorder keeps the most recent and the slowest traces for export at
// GET /debug/traces and /debug/traces/slow. Incoming W3C traceparent
// headers are honored (the trace ID is adopted and sampling is forced),
// and sampled responses echo a traceparent header. Unsampled requests
// skip all span work — the predict hot path allocates nothing extra.
func WithTracing(cfg TraceConfig) ServerOption {
	return func(o *serverOptions) { o.withTracing = true; o.traceCfg = cfg }
}

// WithServerLogger attaches a request logger: one "http_request" line per
// request (endpoint, method, path, status, duration_ms) at LogInfo, at
// LogError for 5xx responses, and with WithTracing the request's
// trace_id (its X-Request-Id). Monitor verdict transitions and stream
// warnings log through it too. nil disables logging.
func WithServerLogger(l *Logger) ServerOption {
	return func(o *serverOptions) { o.logger = l }
}

// WithMonitoring switches on model and data health monitoring: every
// attached model's live input distribution is sketched incrementally
// from the change feed (O(1) per ingested row — the same
// no-rescan discipline the factorized trainers follow) and scored by
// PSI against the training-time baseline persisted with the model's
// lineage (SaveGMMLineage / SaveNNLineage, or cmd/train -save). A
// sampled fraction of predictions additionally feeds a prediction-
// quality sketch. GET /v1/models/{name}/health answers the verdict —
// fresh, drifting or stale — with per-column reasons, /statsz gains a
// "health" section, /metrics (WithMetrics) gains drift/staleness
// gauges, and verdict transitions log through WithServerLogger.
// Monitoring is passive: it never mutates models, and serving and
// refresh results are bit-identical with it on or off.
func WithMonitoring(cfg MonitorConfig) ServerOption {
	return func(o *serverOptions) { o.withMonitor = true; o.monCfg = cfg }
}

// WithMetrics switches on the Prometheus endpoint: GET /metrics serves
// the text exposition format (0.0.4) with per-endpoint request counts
// and latency histograms, engine cache hit-rate gauges, and — when
// combined with WithStream — ingest-queue depth, rejection counters and
// per-model planner decisions: the samples of the same sections /statsz
// renders, plus the HTTP instruments. The instrumentation adds no locks
// to the serving hot path (atomics plus scrape-time snapshots).
func WithMetrics() ServerOption {
	return func(o *serverOptions) { o.withMetrics = true }
}

// Server is the production serving surface over one database: the
// versioned data plane under /v1/ (models, predict, ingest, refresh) and
// the unversioned operational endpoints /healthz, /readyz, /statsz and —
// WithMetrics — /metrics. Build one with NewServer; it is an
// http.Handler, ready for http.Server.
type Server struct {
	srv *serve.Server
	st  *Stream // nil without WithStream
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.srv.ServeHTTP(w, r) }

// Stream returns the change feed wired by WithStream, or nil.
func (s *Server) Stream() *Stream { return s.st }

// Metrics returns the registry behind /metrics, or nil without
// WithMetrics. Callers may register additional application metrics on
// it; they render in the same exposition.
func (s *Server) Metrics() *MetricsRegistry { return s.srv.Metrics() }

// ModelHealth evaluates every monitored model's current health, sorted
// by model name — the same payload GET /v1/models/{name}/health serves
// per model. Nil without WithMonitoring.
func (s *Server) ModelHealth() []ModelHealth { return s.srv.Monitor().HealthAll() }

// TraceHandler returns the flight-recorder export handler (the one the
// server itself mounts at GET /debug/traces and /debug/traces/slow), or
// nil without WithTracing. Mount it on a side debug listener to scrape
// traces without going through the serving port — cmd/serve -debug-addr
// does exactly that, next to net/http/pprof.
func (s *Server) TraceHandler() http.Handler {
	tr := s.srv.Tracer()
	if tr == nil {
		return nil
	}
	return tr.DebugHandler()
}

// SetReady flips the /readyz readiness signal (liveness at /healthz is
// unaffected). Servers start ready; an operator draining the process
// can park it not-ready first so load balancers stop routing to it.
func (s *Server) SetReady(ready bool) { s.srv.SetReady(ready) }

// NewServer builds the serving stack over this database: registered
// models are scored against normalized fact rows whose foreign keys are
// resolved in the named dimension tables (join order — the same order
// used at training time; WithStream checks the list against the catalog,
// without it the list is taken on trust because nothing names the fact
// table whose references could contradict it). Like training, prediction does
// dimension-tuple work once, not once per row: per-dimension-tuple
// partial results are cached in a bounded LRU and batches fan out over
// the worker pool, with responses bit-identical for every
// ServeConfig.NumWorkers value.
//
// The zero-option server exposes the data plane and health endpoints;
// WithStream, WithLimits and WithMetrics layer on live ingestion,
// admission control and Prometheus observability. Every error response
// on every endpoint carries the unified envelope
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// with a stable machine-readable code (see the README's API reference
// for the catalog). See cmd/serve for a runnable server and cmd/loadgen
// for a load generator against it.
func NewServer(d *DB, dimTables []string, opts ...ServerOption) (*Server, error) {
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	// The join served: with a fact table named it is the catalog's, the
	// same spec a Dataset trains over; without one, the tables as named.
	var spec *join.Spec
	var dims *join.DimPlan
	if o.withStream {
		fact, err := d.FactTable(o.fact, dimTables...)
		if err != nil {
			return nil, err
		}
		ds, err := d.Dataset(fact)
		if err != nil {
			return nil, err
		}
		spec, dims = ds.spec, ds.spec.Plan()
	} else if dims, err = d.dimPlan(dimTables); err != nil {
		return nil, err
	}
	eng, err := serve.NewEngine(reg, dims, o.engineCfg)
	if err != nil {
		return nil, err
	}
	sopts := []serve.Option{serve.WithLimits(o.limits), serve.WithLogger(o.logger)}
	if o.withMetrics {
		sopts = append(sopts, serve.WithMetrics())
	}
	var mon *monitor.Monitor
	if o.withMonitor {
		if o.monCfg.Logger == nil {
			o.monCfg.Logger = o.logger
		}
		mon = monitor.New(o.monCfg)
		eng.SetMonitor(mon)
	}
	if o.withTracing {
		sopts = append(sopts, serve.WithTracer(trace.New(o.traceCfg)))
	}
	out := &Server{}
	if o.withStream {
		// The stream boots first, so the server is built whole around its
		// handlers and telemetry sections.
		o.pol.NumWorkers = d.workers(o.pol.NumWorkers)
		st, err := stream.New(d.db, spec, stream.Options{
			Engine:          eng,
			Registry:        reg,
			Policy:          o.pol,
			MaxQueuedIngest: o.limits.MaxQueuedIngest,
			Monitor:         mon,
			WAL:             d.wal,
			Logger:          o.logger,
			SnapshotEvery:   d.snapEvery,
		})
		if err != nil {
			return nil, err
		}
		if err := d.bootStream(st, func() error { return attachRegistered(st, reg) }); err != nil {
			return nil, err
		}
		sopts = append(sopts, serve.WithStream(st.Handler(), st.RefreshHandler(), st.Sections()...))
		out.st = &Stream{st: st}
	}
	out.srv = serve.NewServer(eng, sopts...)
	return out, nil
}

// attachRegistered puts every registered model the stream does not already
// maintain (recovery re-attaches the checkpointed ones) under incremental
// maintenance.
func attachRegistered(st *stream.Stream, reg *serve.Registry) error {
	attached := st.Attached()
	for _, mi := range reg.List() {
		if slices.Contains(attached, mi.Name) {
			continue
		}
		var attachErr error
		switch mi.Kind {
		case KindGMM:
			m, err := reg.GMM(mi.Name)
			if err != nil {
				return err
			}
			attachErr = st.AttachGMM(mi.Name, m)
		case KindNN:
			n, err := reg.NN(mi.Name)
			if err != nil {
				return err
			}
			attachErr = st.AttachNN(mi.Name, n)
		}
		// Schema-incompatible models stay served-but-static; anything
		// else (storage I/O, dangling foreign keys found by the base
		// statistics pass) is a real failure the operator must see.
		if attachErr != nil && !stream.IsIncompatibleModel(attachErr) {
			return fmt.Errorf("factorml: attaching model %q to the stream: %w", mi.Name, attachErr)
		}
	}
	return nil
}

// BootingHandler is a stand-in to serve while a Server is still being
// constructed (the registry loads every persisted model at boot, which
// can take a while on large registries): /healthz answers 200 with
// {"ready": false} (the process is alive) and every other path answers
// 503 not_ready with a Retry-After hint. Bind the listener first, serve
// this, then atomically swap in the real Server once NewServer returns —
// cmd/serve does exactly that.
func BootingHandler() http.Handler { return serve.BootingHandler() }

// dimPlan expands the named direct dimension tables — and every
// sub-dimension their catalog entries reference — into the flattened
// snowflake plan shared by serving and streaming.
func (d *DB) dimPlan(dimTables []string) (*join.DimPlan, error) {
	var direct []*storage.Table
	for _, name := range dimTables {
		tbl, err := d.db.Table(name)
		if err != nil {
			return nil, err
		}
		direct = append(direct, tbl)
	}
	return join.ExpandDims(direct, d.db.Table)
}
