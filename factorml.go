// Package factorml trains nonlinear machine-learning models — full-
// covariance Gaussian Mixture Models and feed-forward Neural Networks —
// directly over normalized relational data, reproducing "Efficient
// Construction of Nonlinear Models over Normalized Data" (ICDE 2021).
//
// Instead of denormalizing a star schema S ⋈ R1 ⋈ … ⋈ Rq into a wide table
// before training, the factorized trainers push the training computation
// through the join: work that depends only on a dimension tuple is done
// once per dimension tuple rather than once per joined row. The
// decomposition is exact — the model is bit-for-bit the one you would get
// from training over the denormalized table — while typically being 2-6×
// faster and never materializing the join.
//
// Three execution strategies are provided for each model family, matching
// the paper's M-/S-/F- algorithm triples, plus a planner that picks one:
//
//	Materialized — write the join result T to disk, train from T (baseline)
//	Streaming    — re-execute the join on the fly each pass (no T storage)
//	Factorized   — stream the join and factorize the computation (the paper)
//	Auto         — consult the cost-based planner (internal/plan): catalog
//	               statistics (row counts, widths, distinct foreign keys,
//	               fan-out — storage.TableStats) price every strategy with
//	               the same flop accounting the trainers measure, plus a
//	               block-nested-loops page-I/O model, and the cheapest wins.
//	               The decision and full cost table land in Stats.Plan; the
//	               trained model is bit-identical to invoking the chosen
//	               strategy directly.
//
// Training additionally runs on a chunked worker pool (internal/parallel),
// sized by Options.NumWorkers or the per-training NumWorkers field of
// GMMConfig/NNConfig (0 = all CPUs, 1 = sequential). The pool's chunk
// geometry and merge order never depend on the worker count, so the
// trained model is bit-for-bit identical for every setting — parallelism
// preserves the exactness guarantee above.
//
// Schemas are not limited to one-hop stars: a dimension table may itself
// reference sub-dimension tables (CreateDimensionTable's variadic parent
// references), forming an arbitrary-depth snowflake DAG. Datasets,
// trainers, the prediction server and the streaming change feed all
// operate on the flattened hierarchy. Training resolves the sub-dimension
// hops once per dimension tuple and factorizes over the direct dimensions,
// each tuple carrying its subtree's features; the prediction server caches
// per-distinct-tuple work at every level.
//
// Quick start:
//
//	db, _ := factorml.Open(dir, factorml.Options{})
//	defer db.Close()
//	brands, _ := db.CreateDimensionTable("brands", []string{"prestige"})
//	items, _ := db.CreateDimensionTable("items", []string{"price", "size"}, brands)
//	orders, _ := db.CreateFactTable("orders", []string{"amount"}, true, items)
//	… append tuples (AppendRefs on tables with sub-dimensions) …
//	ds, _ := db.Dataset(orders)
//	res, _ := factorml.TrainGMM(ds, factorml.Factorized, factorml.GMMConfig{K: 5})
package factorml

import (
	"io"
	"log/slog"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/metrics"
	"factorml/internal/monitor"
	"factorml/internal/nn"
	"factorml/internal/plan"
	"factorml/internal/serve"
	"factorml/internal/storage"
	"factorml/internal/stream"
	"factorml/internal/trace"
	"factorml/internal/wal"
)

// Algorithm selects the execution strategy for training. It is the
// planner's strategy type (internal/plan) under the facade's name, so a
// StrategyPlan's Chosen is an Algorithm as it stands; String names it
// ("materialized", "streaming", "factorized", "auto").
type Algorithm = plan.Strategy

const (
	// Materialized is the paper's M-GMM/M-NN baseline: join, write T to
	// disk, train from T.
	Materialized = plan.Materialized
	// Streaming is the paper's S-GMM/S-NN: join on the fly every pass.
	Streaming = plan.Streaming
	// Factorized is the paper's F-GMM/F-NN: join on the fly with
	// factorized, redundancy-free computation.
	Factorized = plan.Factorized
	// Auto consults the cost-based planner: the catalog's table statistics
	// price every strategy for this dataset and configuration, and training
	// runs the cheapest one. The decision (chosen strategy plus the ranked
	// per-strategy estimates) is reported in the result's Stats.Plan.
	Auto = plan.Auto
)

// ParseAlgorithm reads an Algorithm by the name String prints, or by the
// paper's one-letter prefix for the three strategies ("m", "s", "f") —
// cmd/train's -algo spelling.
func ParseAlgorithm(name string) (Algorithm, error) { return plan.ParseStrategy(name) }

// Re-exported configuration and result types. These are aliases of the
// implementation types so that the facade stays zero-cost.
type (
	// GMMConfig configures EM training (K is required). Diagonal asks for
	// a diagonal-covariance mixture; it is the only place to ask.
	GMMConfig = gmm.Config
	// GMMResult is a trained mixture model plus training statistics.
	GMMResult = gmm.Result
	// GMMModel is a trained Gaussian mixture. Its covariance structure is
	// model state (Diagonal): saved with it, and kept by everything that
	// scores, serves or refreshes it.
	GMMModel = gmm.Model
	// NNConfig configures backprop training.
	NNConfig = nn.Config
	// NNResult is a trained network plus training statistics.
	NNResult = nn.Result
	// NNNetwork is a trained feed-forward network.
	NNNetwork = nn.Network
	// Activation selects the NN hidden activation.
	Activation = nn.Activation
	// BatchMode selects the NN update cadence.
	BatchMode = nn.BatchMode
	// IOStats carries the storage layer's page-read and page-write counters.
	IOStats = storage.IOStats
	// SyntheticConfig configures the synthetic workload generator.
	SyntheticConfig = data.SynthConfig
	// DatasetShape describes one of the paper's real-dataset shapes.
	DatasetShape = data.Shape
	// ModelInfo describes one model in the database's model registry.
	ModelInfo = serve.ModelInfo
	// ModelKind identifies a registered model's family ("gmm" or "nn").
	ModelKind = serve.Kind
	// ServeConfig tunes the prediction engine behind NewServer (worker
	// pool size, dimension-cache capacity).
	ServeConfig = serve.EngineConfig
	// Limits configures admission control on a Server: the per-model
	// in-flight prediction cap and the bounded ingest queue. Zero fields
	// mean unlimited.
	Limits = serve.Limits
	// MetricsRegistry holds the Prometheus metric families a Server
	// built WithMetrics exposes at GET /metrics.
	MetricsRegistry = metrics.Registry
	// StreamPolicy tunes when and how a Stream refreshes its attached
	// models (refresh-row threshold, rebaseline cadence, worker pool).
	StreamPolicy = stream.Policy
	// StreamBatch is one atomic change batch: fact appends plus dimension
	// inserts/updates.
	StreamBatch = stream.Batch
	// FactRow is one new fact tuple in a StreamBatch.
	FactRow = stream.FactRow
	// DimUpdate is one dimension insert/update in a StreamBatch.
	DimUpdate = stream.DimUpdate
	// IngestResult reports what one Ingest applied.
	IngestResult = stream.IngestResult
	// RefreshResult reports one refresh across the attached models.
	RefreshResult = stream.RefreshResult
	// StreamCounters is a snapshot of a stream's cumulative counters.
	StreamCounters = stream.Counters
	// WALStats is a snapshot of the write-ahead log's cumulative
	// counters (LSN watermarks, segment/byte footprint, fsync totals).
	WALStats = wal.Stats
	// StrategyPlan is the cost-based planner's ranked decision: the chosen
	// strategy (an Algorithm) plus one StrategyEstimate per strategy,
	// ascending by score.
	StrategyPlan = plan.Plan
	// StrategyEstimate is one strategy's priced cost: estimated training
	// flops (core.Ops, the same accounting Stats.Ops measures), page I/O,
	// and the combined score the ranking uses.
	StrategyEstimate = plan.Estimate
	// TableStats is the catalog's per-relation statistics snapshot the
	// planner prices strategies from (rows, pages, width, distinct foreign
	// keys; collected at append/flush, persisted in the catalog).
	TableStats = storage.TableStats
	// MonitorConfig tunes the model-health monitor a Server builds
	// WithMonitoring: PSI warn/drift thresholds, the staleness row
	// budget, the prediction-quality sampling fraction and the live-
	// window evidence floor. The zero value selects the defaults
	// (0.1 / 0.25 PSI, staleness disabled, sample everything, 50 rows).
	MonitorConfig = monitor.Config
	// ModelHealth is one model's health evaluation: verdict, per-column
	// drift scores, staleness counters and training lineage.
	ModelHealth = monitor.Health
	// ModelColumnHealth is one joined column's drift score inside a
	// ModelHealth.
	ModelColumnHealth = monitor.ColumnHealth
	// ModelLineage is the training provenance persisted with a model
	// version: when it was trained, over how many rows, with which
	// strategy, and the training-time baseline statistics drift is
	// scored against.
	ModelLineage = monitor.Lineage
	// ModelBaseline is the training-time per-column statistics snapshot
	// inside a ModelLineage.
	ModelBaseline = monitor.Baseline
	// TraceConfig tunes the request tracer a Server builds WithTracing:
	// sampling fraction and slow-trace threshold. The zero value selects
	// the defaults (sample everything, 100 ms). The flight recorder keeps
	// the 128 most recent and the 64 slowest traces, at most 512 spans
	// each.
	TraceConfig = trace.Config
	// TraceStats is the tracer's cumulative counter snapshot (requests
	// seen, sampled, errored, slow, recorded), embedded in /statsz.
	TraceStats = trace.Stats
	// Logger is the standard library's structured logger, which a Server
	// accepts through WithServerLogger; NewLogger builds the JSON one the
	// serve command uses. A Server's request lines carry the trace_id of
	// the request.
	Logger = slog.Logger
	// LogLevel is a Logger severity threshold (see ParseLogLevel).
	LogLevel = slog.Level
)

// Logger severity levels, most to least verbose.
const (
	LogDebug = slog.LevelDebug
	LogInfo  = slog.LevelInfo
	LogWarn  = slog.LevelWarn
	LogError = slog.LevelError
)

// NewLogger builds a JSON line logger writing to w at the min level and
// above: one object per line, keys time, level (DEBUG/INFO/WARN/ERROR),
// msg, then the attributes in call order.
func NewLogger(w io.Writer, min LogLevel) *Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: min}))
}

// ParseLogLevel parses "debug", "info", "warn" or "error"
// (case-insensitive) into a LogLevel, in slog's level syntax.
func ParseLogLevel(s string) (LogLevel, error) {
	var l LogLevel
	err := l.UnmarshalText([]byte(s))
	return l, err
}

// Registered model kinds.
const (
	KindGMM = serve.KindGMM
	KindNN  = serve.KindNN
)

// Model-health verdicts reported by ModelHealth.Verdict, strongest to
// weakest: drifting beats stale beats fresh; unmonitored means the model
// has no persisted baseline to score drift against.
const (
	VerdictFresh       = monitor.VerdictFresh
	VerdictDrifting    = monitor.VerdictDrifting
	VerdictStale       = monitor.VerdictStale
	VerdictUnmonitored = monitor.VerdictUnmonitored
)

// Re-exported NN activation and batching constants.
const (
	Sigmoid  = nn.Sigmoid
	Tanh     = nn.Tanh
	ReLU     = nn.ReLU
	Identity = nn.Identity

	EpochUpdates = nn.Epoch
	BlockUpdates = nn.Block
)
