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
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
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
	// pool size, dimension-cache capacity, micro-batch rows).
	ServeConfig = serve.EngineConfig
	// Limits configures admission control on a Server: the per-model
	// in-flight prediction cap and the bounded ingest queue. Zero fields
	// mean unlimited.
	Limits = serve.Limits
	// MetricsRegistry holds the Prometheus metric families a Server
	// built WithMetrics exposes at GET /metrics.
	MetricsRegistry = metrics.Registry
	// StreamPolicy tunes when and how a Stream refreshes its attached
	// models (refresh-row threshold, rebaseline cadence, worker pool,
	// NN warm-start epochs and learning rate, GMM regularizer).
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

// Options configures a database.
type Options struct {
	// NumWorkers is the default worker-pool size for training over this
	// database — TrainGMM/TrainNN and a Stream's absorbs and refresh
	// training alike — used whenever a GMMConfig, NNConfig or StreamPolicy
	// leaves its own NumWorkers at zero: 0 = all CPUs, 1 = sequential,
	// n > 1 = n workers. Note that a per-call NumWorkers of 0 therefore
	// means "inherit this default", not "all CPUs"; pass runtime.NumCPU()
	// explicitly to override a sequential default for one call.
	// The trained model is bit-for-bit identical for every value — the
	// parallel engine's chunk geometry and merge order never depend on the
	// worker count (see internal/parallel).
	NumWorkers int
}

// DB is a database of normalized relations backed by heap files in a
// directory.
type DB struct {
	db   *storage.Database
	opts Options

	// Durability state (nil/zero unless opened WithDurability).
	wal       *wal.Log
	snapEvery int
	walStream *stream.Stream
	// pendingReplay marks a crash boot whose WAL tail has not been
	// replayed yet: set when the directory was not closed cleanly and
	// recovery work exists, cleared once a stream boot has recovered.
	// While set, Close leaves the crash state untouched so a later boot
	// can still recover it.
	pendingReplay bool

	regOnce sync.Once
	reg     *serve.Registry
	regErr  error
}

// DurabilityConfig switches on crash-safe streaming for a database: a
// write-ahead log makes each ingest batch durable (before its ack, unless
// FsyncEvery opens a loss window), and periodic atomic snapshots bound
// recovery time. After a crash, the next Open restores the last committed
// snapshot and the first NewStream/NewServer replays the WAL tail,
// rebuilding tables, incremental statistics, and the model registry to the
// exact pre-crash state — refreshed models are bit-identical to an
// unkilled run.
type DurabilityConfig struct {
	// Dir is the WAL directory. Empty selects "<dbdir>/wal". It may live
	// on a different filesystem than the database directory.
	Dir string

	// FsyncEvery is the group-commit window. At 0 or 1 no ingest is
	// acknowledged before its record is fsynced, and concurrent writers
	// share one fsync. At N > 1 the log fsyncs only every N-th record and
	// acknowledges the others before they are durable: a crash can lose
	// up to the last N-1 acknowledged records, traded for ingest latency.
	FsyncEvery int

	// SnapshotEvery triggers an automatic checkpoint after this many WAL
	// records past the last snapshot. 0 disables automatic checkpoints
	// (explicit Stream.Checkpoint and the boot/close checkpoints still
	// run), which bounds neither WAL growth nor recovery time.
	SnapshotEvery int
}

// OpenOption is an optional setting for Open.
type OpenOption func(*openConfig)

type openConfig struct {
	dur *DurabilityConfig
	// wal's segment size and NoSync stay at their defaults outside tests;
	// Open takes FsyncEvery from dur.
	wal wal.Options
}

// WithDurability opens the database with a write-ahead log and atomic
// snapshots (see DurabilityConfig). A database previously opened without
// durability can be upgraded by passing this option; dropping the option
// later is safe only after a clean Close.
func WithDurability(cfg DurabilityConfig) OpenOption {
	return func(o *openConfig) {
		c := cfg
		o.dur = &c
	}
}

// Open creates or opens a database directory.
//
// With WithDurability, Open also inspects the WAL directory: after a
// crash (no clean-shutdown marker) it first restores the database files
// captured by the last committed snapshot, leaving the WAL tail to be
// replayed by the first NewStream/NewServer on the returned DB.
func Open(dir string, opts Options, extra ...OpenOption) (*DB, error) {
	var oc openConfig
	for _, o := range extra {
		o(&oc)
	}
	var l *wal.Log
	pending := false
	if oc.dur != nil {
		walDir := oc.dur.Dir
		if walDir == "" {
			walDir = filepath.Join(dir, "wal")
		}
		clean, err := wal.IsClean(walDir)
		if err != nil {
			return nil, fmt.Errorf("factorml: checking clean-shutdown marker: %w", err)
		}
		if !clean {
			// Crash boot (or first boot): rewind the database files to
			// the last committed snapshot before opening them. A no-op
			// when no snapshot exists yet.
			if err := stream.RestoreSnapshotFiles(dir, walDir); err != nil {
				return nil, fmt.Errorf("factorml: restoring snapshot: %w", err)
			}
		}
		walOpts := oc.wal
		walOpts.FsyncEvery = oc.dur.FsyncEvery
		l, err = wal.Open(walDir, walOpts)
		if err != nil {
			return nil, fmt.Errorf("factorml: opening WAL: %w", err)
		}
		if !clean {
			_, _, snapOK, err := wal.CurrentSnapshot(walDir)
			if err != nil {
				l.Close()
				return nil, err
			}
			if !snapOK && l.LastLSN() > 0 {
				// Records but no snapshot to anchor them: genesis never
				// checkpointed, so replay has no base state. NewServer
				// commits a boot checkpoint before clearing the marker
				// exactly so this cannot happen in normal operation.
				l.Close()
				return nil, fmt.Errorf("factorml: WAL %s holds %d records but no committed snapshot; cannot recover", walDir, l.LastLSN())
			}
			pending = snapOK || l.LastLSN() > 0
		}
	}
	sdb, err := storage.Open(dir)
	if err != nil {
		if l != nil {
			l.Close()
		}
		return nil, err
	}
	snapEvery := 0
	if oc.dur != nil {
		snapEvery = oc.dur.SnapshotEvery
	}
	return &DB{db: sdb, opts: opts, wal: l, snapEvery: snapEvery, pendingReplay: pending}, nil
}

// Durable reports whether the database was opened WithDurability.
func (d *DB) Durable() bool { return d.wal.Enabled() }

// WALStats returns the write-ahead log's cumulative counters (all zero
// when durability is off).
func (d *DB) WALStats() WALStats { return d.wal.Stats() }

// Close flushes and closes all tables. With durability on and a live
// stream, Close first commits a checkpoint and marks the shutdown clean,
// so the next Open skips recovery entirely; after a crash boot whose WAL
// tail was never replayed (no stream was built), Close leaves the crash
// state on disk untouched for a later boot to recover.
func (d *DB) Close() error {
	if d.wal == nil {
		return d.db.Close()
	}
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	clean := !d.pendingReplay
	if d.walStream != nil {
		if err := d.walStream.Checkpoint(); err != nil {
			keep(fmt.Errorf("factorml: close checkpoint: %w", err))
			clean = false
		}
	}
	keep(d.db.Close())
	// CLEAN means "the live database files are authoritative": mark it
	// only after the file flush above, and never over unreplayed crash
	// state.
	if clean && firstErr == nil {
		keep(wal.MarkClean(d.wal.Dir()))
	}
	keep(d.wal.Close())
	return firstErr
}

// IOStats returns the cumulative page counters.
func (d *DB) IOStats() IOStats { return d.db.IOStats() }

// ResetIOStats zeroes the page counters.
func (d *DB) ResetIOStats() { d.db.ResetIOStats() }

// DimensionTable is a relation R(rid, fk…, features…) referenced by fact
// tables — and, in a snowflake schema, by other dimension tables. A
// dimension table created with sub-dimension references carries one
// foreign-key column per reference.
type DimensionTable struct {
	tbl  *storage.Table
	subs []*DimensionTable
}

// Name returns the table name.
func (t *DimensionTable) Name() string { return t.tbl.Schema().Name }

// NumTuples returns the number of appended tuples.
func (t *DimensionTable) NumTuples() int64 { return t.tbl.NumTuples() }

// SubDimensions returns the sub-dimension tables this table references, in
// foreign-key order (empty for a leaf table).
func (t *DimensionTable) SubDimensions() []*DimensionTable {
	return append([]*DimensionTable{}, t.subs...)
}

// Append adds a tuple to a leaf dimension table. rid must be unique within
// the table. Tables with sub-dimension references take AppendRefs instead.
func (t *DimensionTable) Append(rid int64, features []float64) error {
	if len(t.subs) > 0 {
		return fmt.Errorf("factorml: dimension table %q references %d sub-dimensions; use AppendRefs", t.Name(), len(t.subs))
	}
	return t.tbl.Append(&storage.Tuple{Keys: []int64{rid}, Features: features})
}

// AppendRefs adds a tuple to a dimension table with sub-dimension
// references: fks must name an existing rid in each referenced
// sub-dimension table, in the order passed to CreateDimensionTable
// (checked at join time).
func (t *DimensionTable) AppendRefs(rid int64, fks []int64, features []float64) error {
	if len(fks) != len(t.subs) {
		return fmt.Errorf("factorml: %d foreign keys for %d sub-dimension tables of %q", len(fks), len(t.subs), t.Name())
	}
	keys := make([]int64, 1+len(fks))
	keys[0] = rid
	copy(keys[1:], fks)
	return t.tbl.Append(&storage.Tuple{Keys: keys, Features: features})
}

// Flush persists any buffered tuples.
func (t *DimensionTable) Flush() error { return t.tbl.Flush() }

// FactTable is a relation S(sid, fk…, features…, target?) with one foreign
// key per referenced dimension table.
type FactTable struct {
	tbl  *storage.Table
	dims []*DimensionTable
}

// Name returns the table name.
func (t *FactTable) Name() string { return t.tbl.Schema().Name }

// NumTuples returns the number of appended tuples.
func (t *FactTable) NumTuples() int64 { return t.tbl.NumTuples() }

// Append adds a fact tuple; fks must name an existing rid in each
// referenced dimension table (checked at join time). target is ignored
// unless the table was created with a target column.
func (t *FactTable) Append(sid int64, fks []int64, features []float64, target float64) error {
	if len(fks) != len(t.dims) {
		return fmt.Errorf("factorml: %d foreign keys for %d dimension tables", len(fks), len(t.dims))
	}
	keys := make([]int64, 1+len(fks))
	keys[0] = sid
	copy(keys[1:], fks)
	return t.tbl.Append(&storage.Tuple{Keys: keys, Features: features, Target: target})
}

// Flush persists any buffered tuples.
func (t *FactTable) Flush() error { return t.tbl.Flush() }

// CreateDimensionTable creates a dimension relation with the given feature
// columns. Passing sub-dimension tables builds a snowflake level: the new
// table gets one foreign-key column per referenced table (fill them with
// AppendRefs), and every join rooted at a fact table referencing this one
// transparently extends through the whole hierarchy. The references are
// recorded in the database catalog, so reopened databases — and cmd/train
// and cmd/serve — reconstruct the hierarchy without redeclaring it.
func (d *DB) CreateDimensionTable(name string, features []string, subs ...*DimensionTable) (*DimensionTable, error) {
	schema := &storage.Schema{
		Name:     name,
		Keys:     []string{"rid"},
		Features: features,
	}
	for i, sub := range subs {
		if sub == nil {
			return nil, fmt.Errorf("factorml: sub-dimension table %d of %q is nil", i, name)
		}
		schema.Keys = append(schema.Keys, fmt.Sprintf("fk%d", i+1))
		schema.Refs = append(schema.Refs, sub.Name())
	}
	tbl, err := d.db.CreateTable(schema)
	if err != nil {
		return nil, err
	}
	return &DimensionTable{tbl: tbl, subs: append([]*DimensionTable{}, subs...)}, nil
}

// CreateFactTable creates a fact relation with one foreign key per listed
// dimension table and, when withTarget is set, a target column for
// supervised training.
func (d *DB) CreateFactTable(name string, features []string, withTarget bool, dims ...*DimensionTable) (*FactTable, error) {
	if len(dims) == 0 {
		return nil, errors.New("factorml: a fact table needs at least one dimension table")
	}
	schema := &storage.Schema{
		Name:      name,
		Keys:      []string{"sid"},
		Features:  features,
		HasTarget: withTarget,
	}
	for i, dim := range dims {
		if dim == nil {
			return nil, fmt.Errorf("factorml: dimension table %d of %q is nil", i, name)
		}
		schema.Keys = append(schema.Keys, fmt.Sprintf("fk%d", i+1))
		schema.Refs = append(schema.Refs, dim.Name())
	}
	tbl, err := d.db.CreateTable(schema)
	if err != nil {
		return nil, err
	}
	return &FactTable{tbl: tbl, dims: dims}, nil
}

// DimensionTable opens an existing dimension relation by name,
// rebuilding its sub-dimension handles from the references recorded in
// the database catalog.
func (d *DB) DimensionTable(name string) (*DimensionTable, error) {
	tbl, err := d.db.Table(name)
	if err != nil {
		return nil, err
	}
	var subs []*DimensionTable
	for _, ref := range tbl.Schema().Refs {
		sub, err := d.DimensionTable(ref)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	return &DimensionTable{tbl: tbl, subs: subs}, nil
}

// ErrDimsMismatch is wrapped by the error DB.FactTable returns when the
// dimension tables a caller names are not the ones the catalog records.
var ErrDimsMismatch = errors.New("dimension tables do not match the catalog")

// FactTable opens an existing fact relation by name, rebuilding its
// dimension-table handles from the references recorded in the database
// catalog — the handle a reopened database needs for Dataset or
// NewStream (e.g. when rebooting a durable database after a crash).
//
// dims is for a caller that was told the join by someone else (cmd/train's
// -dims): when the catalog records the fact table's references, dims must
// be empty or repeat them exactly, in foreign-key order — the feature
// layout and the key each table is probed with both follow that order, so
// a permuted list is refused (ErrDimsMismatch) rather than trained over;
// when the catalog records none (a table created below this API), dims
// names the dimension tables.
func (d *DB) FactTable(name string, dims ...string) (*FactTable, error) {
	tbl, err := d.db.Table(name)
	if err != nil {
		return nil, err
	}
	if refs := tbl.Schema().Refs; len(refs) > 0 {
		if len(dims) > 0 && !slices.Equal(dims, refs) {
			return nil, fmt.Errorf("factorml: fact table %q references %s, in that order; got %s: %w",
				name, strings.Join(refs, ","), strings.Join(dims, ","), ErrDimsMismatch)
		}
		dims = refs
	}
	out := &FactTable{tbl: tbl}
	for _, ref := range dims {
		dim, err := d.DimensionTable(ref)
		if err != nil {
			return nil, err
		}
		out.dims = append(out.dims, dim)
	}
	return out, nil
}

// Dataset binds a fact table to its dimension tables for training.
type Dataset struct {
	db   *DB
	spec *join.Spec
}

// Dataset builds a training dataset over the join rooted at fact — the
// one-hop star, or, when any dimension table references sub-dimensions,
// the whole snowflake hierarchy flattened in depth-first preorder (the
// feature layout every trainer and server over this schema shares).
func (d *DB) Dataset(fact *FactTable) (*Dataset, error) {
	var direct []*storage.Table
	for _, dim := range fact.dims {
		direct = append(direct, dim.tbl)
	}
	spec, err := join.NewSnowflakeSpec(fact.tbl, direct, d.db.Table)
	if err != nil {
		return nil, err
	}
	if err := fact.Flush(); err != nil {
		return nil, err
	}
	for _, r := range spec.Rs {
		if err := r.Flush(); err != nil {
			return nil, err
		}
	}
	return &Dataset{db: d, spec: spec}, nil
}

// JoinedWidth returns the feature dimensionality of the (virtual) join.
func (ds *Dataset) JoinedWidth() int { return ds.spec.JoinedWidth() }

// NumRows returns the number of fact tuples.
func (ds *Dataset) NumRows() int64 { return ds.spec.S.NumTuples() }

// Stream iterates the joined rows without materializing them. The feature
// slice is reused between calls.
func (ds *Dataset) Stream(fn func(sid int64, features []float64, target float64) error) error {
	return join.Stream(ds.spec, fn)
}

// TrainGMM trains a Gaussian mixture over the dataset with the chosen
// execution strategy. With Auto, the cost-based planner selects the
// strategy from the catalog's table statistics; the decision is recorded
// in the result's Stats.Plan and the trained model is bit-identical to
// invoking the chosen strategy directly.
func TrainGMM(ds *Dataset, algo Algorithm, cfg GMMConfig) (*GMMResult, error) {
	cfg.NumWorkers = ds.db.workers(cfg.NumWorkers)
	algo, planned, err := ds.resolve(algo, cfg.ModelSpec())
	if err != nil {
		return nil, err
	}
	res, err := gmm.Train(ds.db.db, ds.spec, algo, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats.Plan = planned
	return res, nil
}

// TrainNN trains a feed-forward network over the dataset with the chosen
// execution strategy. The fact table must have been created with a target.
// With Auto, the cost-based planner selects the strategy (see TrainGMM).
func TrainNN(ds *Dataset, algo Algorithm, cfg NNConfig) (*NNResult, error) {
	cfg.NumWorkers = ds.db.workers(cfg.NumWorkers)
	algo, planned, err := ds.resolve(algo, cfg.ModelSpec())
	if err != nil {
		return nil, err
	}
	res, err := nn.Train(ds.db.db, ds.spec, algo, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats.Plan = planned
	return res, nil
}

// workers resolves a GMMConfig's, NNConfig's or StreamPolicy's NumWorkers:
// zero inherits the database default, Options.NumWorkers.
func (d *DB) workers(n int) int {
	if n == 0 {
		return d.opts.NumWorkers
	}
	return n
}

// resolve turns Auto into the planner's pick for the model, returning the
// plan it came from; any other algorithm passes through with a nil plan.
func (ds *Dataset) resolve(algo Algorithm, m plan.ModelSpec) (Algorithm, *StrategyPlan, error) {
	if algo != Auto {
		return algo, nil, nil
	}
	p, err := ds.plan(m)
	if err != nil {
		return algo, nil, err
	}
	return p.Chosen, p, nil
}

// plan prices the three execution strategies for one model over the
// dataset from the catalog's persisted table statistics.
func (ds *Dataset) plan(m plan.ModelSpec) (*StrategyPlan, error) {
	ss, err := plan.Collect(ds.spec)
	if err != nil {
		return nil, err
	}
	return plan.Choose(ss, m, plan.Options{})
}

// PlanGMM prices the three execution strategies for EM training of a
// mixture with this configuration over the dataset, using the catalog's
// persisted table statistics (storage.TableStats), and returns the ranked
// plan without training.
func PlanGMM(ds *Dataset, cfg GMMConfig) (*StrategyPlan, error) {
	return ds.plan(cfg.ModelSpec())
}

// PlanNN prices the three execution strategies for SGD training of a
// network with this configuration over the dataset; see PlanGMM.
func PlanNN(ds *Dataset, cfg NNConfig) (*StrategyPlan, error) {
	return ds.plan(cfg.ModelSpec())
}

// GenerateSynthetic creates a synthetic star schema in the database and
// returns it as a Dataset (see SyntheticConfig for the shape knobs).
func GenerateSynthetic(d *DB, name string, cfg SyntheticConfig) (*Dataset, error) {
	spec, err := data.Generate(d.db, name, cfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{db: d, spec: spec}, nil
}

// RealDatasetShapes lists the shapes of the paper's real datasets
// (Tables IV/V).
func RealDatasetShapes() []DatasetShape {
	return append([]DatasetShape{}, data.RealShapes...)
}

// GenerateRealShape creates a simulated instance of one of the paper's real
// datasets at the given scale ∈ (0,1].
func GenerateRealShape(d *DB, name string, scale float64, seed int64) (*Dataset, error) {
	shape, err := data.ShapeByName(name)
	if err != nil {
		return nil, err
	}
	spec, err := data.GenerateShape(d.db, shape, scale, seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{db: d, spec: spec}, nil
}

// registry lazily opens the model registry of the database directory. The
// registry loads every persisted model on first use and is shared by the
// save/load methods and NewServer.
func (d *DB) registry() (*serve.Registry, error) {
	d.regOnce.Do(func() { d.reg, d.regErr = serve.NewRegistry(d.db) })
	return d.reg, d.regErr
}

// ValidModelName reports whether name can be a registry key: 1–64
// characters of letters, digits, '_' and '-', starting alphanumeric. The
// Save methods refuse anything else; check first to fail before training
// rather than after.
func ValidModelName(name string) bool { return serve.ValidModelName(name) }

// SaveGMM persists a trained mixture model under a name in the database's
// model registry (version 1, or a bumped version when the name exists).
// Saved models survive Close/Open and are served by NewServer and
// cmd/serve. The registry keeps a reference to the model; do not
// mutate it afterwards.
func (d *DB) SaveGMM(name string, m *GMMModel) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.SaveGMM(name, m)
}

// SaveNN persists a trained network under a name in the database's model
// registry. See SaveGMM for the registry semantics.
func (d *DB) SaveNN(name string, n *NNNetwork) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.SaveNN(name, n)
}

// GMMLineage captures training lineage for a mixture just trained over
// the dataset: two streaming passes over the join snapshot per-column
// distribution statistics plus a per-row log-likelihood baseline, the
// reference every later drift and prediction-quality score compares
// against. Pass the result to SaveGMMLineage (and a health monitor picks
// it up from the registry).
func GMMLineage(ds *Dataset, m *GMMModel, strategy string) (*ModelLineage, error) {
	logProb := m.LogProbFunc()
	base, err := monitor.CaptureBaseline(ds.spec,
		func(x []float64, y float64) float64 { return logProb(x) }, "log_likelihood")
	if err != nil {
		return nil, err
	}
	return &ModelLineage{
		TrainedAtUnix: base.CapturedAtUnix,
		TrainingRows:  base.Rows,
		Strategy:      strategy,
		Baseline:      base,
	}, nil
}

// NNLineage captures training lineage for a network just trained over
// the dataset; the quality baseline sketches the network's output
// distribution. See GMMLineage.
func NNLineage(ds *Dataset, n *NNNetwork, strategy string) (*ModelLineage, error) {
	base, err := monitor.CaptureBaseline(ds.spec,
		func(x []float64, y float64) float64 { return n.Predict(x) }, "output")
	if err != nil {
		return nil, err
	}
	return &ModelLineage{
		TrainedAtUnix: base.CapturedAtUnix,
		TrainingRows:  base.Rows,
		Strategy:      strategy,
		Baseline:      base,
	}, nil
}

// SaveGMMLineage is SaveGMM with training lineage persisted alongside
// the model version (surfaced in GET /v1/models and the health
// endpoint). A nil lineage behaves like SaveGMM: the previous version's
// lineage, if any, is carried forward.
func (d *DB) SaveGMMLineage(name string, m *GMMModel, lin *ModelLineage) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.SaveGMMLineage(name, m, lin)
}

// SaveNNLineage is SaveNN with training lineage persisted alongside the
// model version; see SaveGMMLineage.
func (d *DB) SaveNNLineage(name string, n *NNNetwork, lin *ModelLineage) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.SaveNNLineage(name, n, lin)
}

// LoadGMM returns the named mixture model from the registry. The model is
// shared with the registry: treat it as read-only.
func (d *DB) LoadGMM(name string) (*GMMModel, error) {
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	return reg.GMM(name)
}

// LoadNN returns the named network from the registry. The network is
// shared with the registry: treat it as read-only.
func (d *DB) LoadNN(name string) (*NNNetwork, error) {
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	return reg.NN(name)
}

// Models lists every registered model's metadata, sorted by name.
func (d *DB) Models() ([]ModelInfo, error) {
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	return reg.List(), nil
}

// DeleteModel removes a model from the registry and from disk.
func (d *DB) DeleteModel(name string) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.Delete(name)
}

// Stream is a live change feed over one star schema (see internal/stream):
// Ingest appends fact and dimension deltas, and Refresh folds them into
// every attached model incrementally — one warm-start EM step per GMM in
// time proportional to the delta, NN warm-start epochs — publishing
// refreshed models to the database's registry.
type Stream struct {
	st *stream.Stream
}

// NewStream opens a change feed over the star join rooted at fact. The
// database's model registry receives every refreshed model (version
// bump), so a prediction server over the same database serves refreshed
// parameters without a restart.
//
// On a database opened WithDurability, the stream writes every batch to
// the WAL before applying it, and NewStream finishes any pending crash
// recovery: it replays the WAL tail past the last snapshot (re-attaching
// the models the checkpoint had under maintenance) and commits a fresh
// boot checkpoint. Models the replay attached show up in Attached() —
// re-attach only what is missing.
func (d *DB) NewStream(fact *FactTable, pol StreamPolicy) (*Stream, error) {
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	ds, err := d.Dataset(fact) // validates and flushes the tables
	if err != nil {
		return nil, err
	}
	pol.NumWorkers = d.workers(pol.NumWorkers)
	st, err := stream.New(d.db, ds.spec, stream.Options{
		Registry:      reg,
		Policy:        pol,
		WAL:           d.wal,
		SnapshotEvery: d.snapEvery,
	})
	if err != nil {
		return nil, err
	}
	if err := d.bootStream(st, nil); err != nil {
		return nil, err
	}
	return &Stream{st: st}, nil
}

// bootStream brings a freshly built stream up — the one place the durable
// boot order is written. Replay the WAL tail past the last snapshot first:
// recovery re-attaches exactly the models the last checkpoint had under
// maintenance, with their incremental statistics intact, so attach (nil
// for none) runs after it and adds only what is missing. Then commit a
// boot checkpoint so the snapshot covers the current state, and clear the
// clean-shutdown marker — from here on a missing marker means "crashed,
// recover on next boot", and a kill leaves recoverable state (snapshot +
// WAL tail) behind. Without durability only attach runs.
func (d *DB) bootStream(st *stream.Stream, attach func() error) error {
	if d.wal != nil {
		if err := st.Recover(context.Background()); err != nil {
			return fmt.Errorf("factorml: WAL recovery: %w", err)
		}
	}
	if attach != nil {
		if err := attach(); err != nil {
			return err
		}
	}
	if d.wal == nil {
		return nil
	}
	if err := st.Checkpoint(); err != nil {
		return fmt.Errorf("factorml: boot checkpoint: %w", err)
	}
	if err := wal.ClearClean(d.wal.Dir()); err != nil {
		return err
	}
	d.walStream = st
	d.pendingReplay = false
	return nil
}

// AttachGMM puts a trained mixture under incremental maintenance (the
// base statistics are built with one pass over the current fact table).
func (s *Stream) AttachGMM(name string, m *GMMModel) error { return s.st.AttachGMM(name, m) }

// AttachNN puts a trained network under incremental maintenance
// (refreshes warm-start the factorized trainer from its parameters).
func (s *Stream) AttachNN(name string, n *NNNetwork) error { return s.st.AttachNN(name, n) }

// Ingest validates and applies one change batch: dimension inserts/updates
// first, then fact appends; nothing is applied when any row fails
// validation. When the batch pushes the pending-row count over
// StreamPolicy.RefreshRows, a refresh runs before Ingest returns.
func (s *Stream) Ingest(b StreamBatch) (IngestResult, error) { return s.st.Ingest(b) }

// Refresh folds everything ingested so far into every attached model — one
// incremental EM step per GMM (cost proportional to the delta,
// bit-identical to recomputing the statistics over base+delta for every
// worker count), NN warm-start epochs — and publishes the refreshed models
// in the registry.
func (s *Stream) Refresh() (RefreshResult, error) { return s.st.Refresh() }

// GMM returns the current refreshed parameters of an attached mixture.
func (s *Stream) GMM(name string) (*GMMModel, error) { return s.st.GMM(name) }

// NN returns the current refreshed parameters of an attached network.
func (s *Stream) NN(name string) (*NNNetwork, error) { return s.st.NN(name) }

// Pending returns the number of fact rows ingested since the last refresh.
func (s *Stream) Pending() int64 { return s.st.Pending() }

// Counters returns a snapshot of the stream's cumulative counters.
func (s *Stream) Counters() StreamCounters { return s.st.Counters() }

// Attached returns the names of the models under incremental maintenance.
func (s *Stream) Attached() []string { return s.st.Attached() }

// Checkpoint commits an atomic snapshot of the database files plus the
// stream's incremental state and truncates the WAL behind it. A no-op
// without durability. Close calls this automatically; call it directly
// to bound recovery time between automatic SnapshotEvery checkpoints.
func (s *Stream) Checkpoint() error { return s.st.Checkpoint() }

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
// dimension-cache capacity, micro-batch rows). The zero ServeConfig is
// the default.
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
