package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"

	"factorml/internal/core"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/monitor"
	"factorml/internal/nn"
	"factorml/internal/plan"
	"factorml/internal/serve"
	"factorml/internal/storage"
	"factorml/internal/trace"
	"factorml/internal/wal"
)

// Policy tunes when and how refreshes run.
type Policy struct {
	// RefreshRows triggers an automatic refresh of every attached model
	// once that many fact rows are pending (ingested since the last
	// refresh). 0 means manual refreshes only.
	RefreshRows int

	// RebaselineEvery rebuilds a GMM's statistics from scratch under its
	// current model on every Nth refresh, bounding the staleness of
	// frozen responsibilities (see the package comment). 0 never
	// rebaselines on a cadence (dimension updates still force one).
	RebaselineEvery int

	// NumWorkers sizes the worker pool of absorbs and refresh training:
	// 0 = all CPUs (the factorml facade first resolves 0 to its
	// database-wide Options.NumWorkers default), 1 = sequential.
	// Refreshed models are bit-identical for every value.
	NumWorkers int
}

// An NN refresh runs refreshEpochs warm-start SGD epochs over base ∪ delta
// at refreshLearningRate.
const (
	refreshEpochs       = 1
	refreshLearningRate = 0.05
)

// Options wires a Stream into its surroundings.
type Options struct {
	// Engine, when set, shares its resident dimension indexes with the
	// stream: dimension updates flow through serve.Engine.ApplyDimUpdate,
	// which surgically invalidates the cached partials of the updated
	// tuple, so a live server observes the change immediately.
	Engine *serve.Engine

	// Registry, when set, receives every refreshed model under its
	// attached name (version bump), which is how a serving engine picks
	// up refreshed parameters without a restart.
	Registry *serve.Registry

	// MaxQueuedIngest bounds admitted-but-unfinished HTTP ingest batches
	// (the bounded ingest queue): a batch arriving while the queue is
	// full is rejected by Handler with 429 ingest_overloaded before its
	// body is read. 0 = unlimited. Direct Ingest calls bypass the queue —
	// the bound is HTTP admission control, not a correctness gate.
	MaxQueuedIngest int

	// Monitor, when set, rides the change feed: every ingested fact row
	// is resolved to its joined feature vector and folded into the
	// per-model drift sketches (O(1) per row), dimension updates feed
	// the affected columns, refreshes advance the persisted baselines,
	// and attached models are registered with their lineage. Monitoring
	// is passive — it never changes what the stream trains or saves.
	Monitor *monitor.Monitor

	// WAL, when set, makes ingest durable: every validated batch and
	// explicit refresh is appended (and fsynced, per the log's group-
	// commit options) to the write-ahead log BEFORE it is applied, so
	// an acked batch survives a crash at any point. With a WAL the
	// stream also skips per-batch heap flushes — durability comes from
	// the log, and checkpoints (Checkpoint / SnapshotEvery) write the
	// heaps back in bulk.
	WAL *wal.Log

	// Logger, when set, receives the stream's operational events (a nil
	// logger is silent).
	Logger *slog.Logger

	// SnapshotEvery takes an automatic checkpoint once the WAL has
	// grown that many records past the last snapshot. 0 disables
	// automatic checkpoints (Checkpoint can still be called directly).
	SnapshotEvery int

	Policy Policy
}

// attached is one model under incremental maintenance.
type attached struct {
	name  string
	kind  serve.Kind
	gmdl  *gmm.Model
	stats *GMMStats
	dirty bool // dimension update since the last refresh touched the data
	net   *nn.Network
	// lastRows is the fact-table size the model was last refreshed over
	// (NN), so a refresh with no new data and no dimension change can
	// skip the full-dataset warm-start epochs.
	lastRows int64
	// plan is the cost-based strategy decision an NN refresh reuses
	// (computed at attach time from the catalog statistics, recomputed
	// when a dimension update dirties the model). Nil falls back to the
	// factorized trainer.
	plan *plan.Plan
}

// refreshStrategy is the access path an attached network's refreshes train
// over: the plan's cheapest strategy that writes no join table — one
// written into a live serving database would race concurrent readers for
// no payoff — and the factorized one when there is no plan.
func (m *attached) refreshStrategy() plan.Strategy {
	if m.plan == nil {
		return plan.Factorized
	}
	return m.plan.CheapestNonMaterializing()
}

// Stream is the change feed over one star schema: it appends fact and
// dimension deltas to the underlying tables, keeps the resident indexes
// and serving caches coherent, and maintains the attached models'
// factorized sufficient statistics incrementally. All methods are safe
// for concurrent use; ingest and refresh serialize on one mutex while
// serving reads proceed through the (independently locked) resident
// indexes and LRUs.
type Stream struct {
	mu   sync.Mutex
	db   *storage.Database
	spec *join.Spec
	p    core.Partition
	// idxs holds one resident index per plan node (shared per table). The
	// stream reads feature views (Lookup, At) only under mu, and every
	// Upsert of these indexes — its own or serve.Engine.ApplyDimUpdate's —
	// runs under mu too, so a view is never written while it is read.
	idxs []*join.ResidentIndex
	rv   *join.Resolver
	dimJ map[string][]int // dimension table name -> plan node positions
	// direct[d] is the plan node of the fact table's d-th foreign key.
	direct []int
	eng    *serve.Engine
	reg    *serve.Registry
	pol    Policy
	mon    *monitor.Monitor
	log    *slog.Logger // never nil: a discarding logger stands in for none
	// Monitor scratch (allocated once when a monitor is attached): the
	// joined-row buffer and per-node ordinals, reused across every
	// ingested fact row so the observe path allocates nothing.
	monX   []float64
	monPos []int

	models map[string]*attached
	// refreshSeq counts refreshes for the rebaseline cadence.
	refreshSeq uint64

	// ingestLim is the bounded ingest queue (nil = unlimited): Handler
	// holds a slot from before the body is read until the batch is done,
	// so len(ingestLim) is the queue depth and a full queue answers 429.
	ingestLim        *serve.Limiter
	maxQueued        int
	ingestRejections atomic.Uint64

	// Durability state (nil wal = off). replaying suppresses re-logging
	// and checkpoint triggers while Recover re-applies the WAL tail;
	// walBuf is the reused record-encoding buffer (all appends run
	// under mu, so one buffer suffices).
	wal       *wal.Log
	snapEvery int
	replaying bool
	walBuf    []byte

	// cmu guards the plain-integer observability state (counters,
	// pending-row count) separately from mu, so Counters() and Pending()
	// — the /statsz path — never block behind a refresh that holds mu
	// for an O(dataset) training pass. Writers always hold mu first;
	// lock order is mu → cmu.
	cmu      sync.Mutex
	pending  int64
	counters Counters
	// plannerSnap is the current per-model strategy decisions, rebuilt
	// under mu whenever a plan changes (attach, refresh replan) and read
	// under cmu — so the /statsz planner section, like Counters, never
	// blocks behind a refresh holding mu for an O(dataset) pass.
	plannerSnap []PlannerDecision
}

// New builds a stream over the (star or snowflake) join spec. When
// opts.Engine is set it must serve every dimension table of the spec (the
// indexes are shared); otherwise the stream pins its own copy of the
// dimension relations — one copy per table, shared by every hierarchy
// position that references it, so a dimension update lands exactly once.
func New(db *storage.Database, spec *join.Spec, opts Options) (*Stream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dims := []int{spec.S.Schema().NumFeatures()}
	for _, r := range spec.Rs {
		dims = append(dims, r.Schema().NumFeatures())
	}
	s := &Stream{
		db:        db,
		spec:      spec,
		p:         core.NewPartition(dims),
		dimJ:      make(map[string][]int, len(spec.Rs)),
		eng:       opts.Engine,
		reg:       opts.Registry,
		pol:       opts.Policy,
		models:    make(map[string]*attached),
		ingestLim: serve.NewLimiter(opts.MaxQueuedIngest),
		maxQueued: opts.MaxQueuedIngest,
		mon:       opts.Monitor,
		log:       opts.Logger,
		wal:       opts.WAL,
		snapEvery: opts.SnapshotEvery,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	plan := spec.Plan()
	var lookup func(name string) (*join.ResidentIndex, bool)
	if s.eng != nil {
		lookup = s.eng.Index
	}
	idxs, err := plan.BuildIndexes(lookup)
	if err != nil {
		return nil, err
	}
	s.idxs = idxs
	for j, r := range spec.Rs {
		name := r.Schema().Name
		s.dimJ[name] = append(s.dimJ[name], j)
		if plan.Parent[j] == -1 {
			s.direct = append(s.direct, j)
		}
	}
	rv, err := join.NewResolver(plan.Parent, plan.Ref, s.idxs)
	if err != nil {
		return nil, err
	}
	s.rv = rv
	if s.mon != nil {
		s.monX = make([]float64, s.p.D)
		s.monPos = make([]int, len(s.idxs))
	}
	return s, nil
}

// AttachGMM puts a mixture model under incremental maintenance: the base
// statistics are built with one full absorb under the model (cost ∝ the
// current fact table), after which refreshes cost time proportional to
// the ingested delta.
func (s *Stream) AttachGMM(name string, m *gmm.Model) error {
	if err := s.fitsGMM(name, m); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.attachGMMLocked(name, m); err != nil {
		return err
	}
	return s.logAttachLocked(walAttachGMM, name, m.Save)
}

// fitsGMM checks that a mixture scores this schema's joined rows.
func (s *Stream) fitsGMM(name string, m *gmm.Model) error {
	if m == nil {
		return fmt.Errorf("stream: nil GMM model")
	}
	if m.D != s.p.D {
		return incompatErrf("stream: model %q has dimension %d, star schema joins to %d", name, m.D, s.p.D)
	}
	return nil
}

func (s *Stream) attachGMMLocked(name string, m *gmm.Model) error {
	if _, ok := s.models[name]; ok {
		return fmt.Errorf("stream: model %q already attached", name)
	}
	st := NewGMMStats(s.rv, s.p.Dims[0], m)
	if err := st.Absorb(m, s.spec.S, s.pol.NumWorkers); err != nil {
		return err
	}
	s.models[name] = &attached{name: name, kind: serve.KindGMM, gmdl: m.Clone(), stats: st}
	s.attachMonitorLocked(name, serve.KindGMM)
	s.cmu.Lock()
	s.counters.AttachedModels = len(s.models)
	s.cmu.Unlock()
	s.snapshotPlansLocked()
	return nil
}

// logAttachLocked appends a walOpAttach record for a model that was
// just attached. Attach mutates only memory, so apply-then-log is safe:
// a crash between the two loses an attach that was never acknowledged.
func (s *Stream) logAttachLocked(kind byte, name string, save func(io.Writer) error) error {
	if s.wal == nil || s.replaying {
		return nil
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return fmt.Errorf("stream: serializing model %q for the WAL: %w", name, err)
	}
	var err error
	s.walBuf, err = appendAttachRecord(s.walBuf[:0], kind, name, buf.Bytes())
	if err != nil {
		return err
	}
	if _, err := s.wal.Append(s.walBuf); err != nil {
		return fmt.Errorf("stream: WAL append: %w", err)
	}
	return nil
}

// attachMonitorLocked registers a just-attached model with the health
// monitor, carrying the lineage (baseline statistics) its registry
// version was persisted with.
func (s *Stream) attachMonitorLocked(name string, kind serve.Kind) {
	if s.mon == nil {
		return
	}
	version := 0
	var lin *monitor.Lineage
	if s.reg != nil {
		if info, ok := s.reg.Get(name); ok {
			version = info.Version
			lin = info.Lineage
		}
	}
	s.mon.Attach(name, string(kind), version, lin)
}

// AttachNN puts a network under incremental maintenance: refreshes
// warm-start the factorized trainer from the current parameters over
// base ∪ delta (refreshEpochs epochs).
func (s *Stream) AttachNN(name string, net *nn.Network) error {
	if err := s.fitsNN(name, net); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.attachNNLocked(name, net); err != nil {
		return err
	}
	return s.logAttachLocked(walAttachNN, name, net.Save)
}

// fitsNN checks that a network reads this schema's joined rows and that
// the fact table carries the target its refresh trains on.
func (s *Stream) fitsNN(name string, net *nn.Network) error {
	if net == nil {
		return fmt.Errorf("stream: nil NN model")
	}
	if got := net.InputDim(); got != s.p.D {
		return incompatErrf("stream: network %q has input dim %d, star schema joins to %d", name, got, s.p.D)
	}
	if !s.spec.S.Schema().HasTarget {
		return incompatErrf("stream: fact table %q has no target column; NN refresh needs one", s.spec.S.Schema().Name)
	}
	return nil
}

func (s *Stream) attachNNLocked(name string, net *nn.Network) error {
	if _, ok := s.models[name]; ok {
		return fmt.Errorf("stream: model %q already attached", name)
	}
	m := &attached{name: name, kind: serve.KindNN, net: net.Clone()}
	m.plan = s.planNN(context.Background(), m.net) // the strategy every refresh reuses
	s.models[name] = m
	s.attachMonitorLocked(name, serve.KindNN)
	s.cmu.Lock()
	s.counters.AttachedModels = len(s.models)
	s.cmu.Unlock()
	s.snapshotPlansLocked()
	return nil
}

// refreshConfig is the training run one refresh of an attached network
// makes: refreshEpochs warm-start epochs from its current parameters.
func (s *Stream) refreshConfig(net *nn.Network) nn.Config {
	return nn.Config{
		Init:         net,
		Epochs:       refreshEpochs,
		LearningRate: refreshLearningRate,
		NumWorkers:   s.pol.NumWorkers,
	}
}

// planNN consults the cost-based planner for one attached network's
// refresh over the current catalog statistics. A nil return (statistics
// unavailable) falls back to the factorized trainer.
func (s *Stream) planNN(ctx context.Context, net *nn.Network) *plan.Plan {
	ss, err := plan.Collect(s.spec)
	if err != nil {
		return nil
	}
	p, err := plan.ChooseCtx(ctx, ss, s.refreshConfig(net).ModelSpec(), plan.Options{})
	if err != nil {
		return nil
	}
	return p
}

// GMM returns the current refreshed parameters of an attached mixture.
// The model is a copy: mutating it cannot disturb the maintenance state
// (mirroring the defensive clone Attach takes on the way in).
func (s *Stream) GMM(name string) (*gmm.Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[name]
	if !ok || m.kind != serve.KindGMM {
		return nil, fmt.Errorf("stream: no attached GMM %q", name)
	}
	return m.gmdl.Clone(), nil
}

// NN returns the current refreshed parameters of an attached network.
// The network is a copy: mutating it cannot disturb the maintenance
// state.
func (s *Stream) NN(name string) (*nn.Network, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[name]
	if !ok || m.kind != serve.KindNN {
		return nil, fmt.Errorf("stream: no attached NN %q", name)
	}
	return m.net.Clone(), nil
}

// Attached returns the names of the models under incremental
// maintenance, sorted.
func (s *Stream) Attached() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PlannerDecision reports the cost-based strategy decision one attached
// model's next refresh will reuse (see internal/plan): "incremental" for
// the GMM sufficient-statistics maintenance, or the planner-chosen
// strategy with its full estimate table for an NN warm-start retrain.
type PlannerDecision struct {
	Model     string          `json:"model"`
	Kind      string          `json:"kind"`
	Strategy  string          `json:"strategy"`
	Estimates []plan.Estimate `json:"estimates,omitempty"`
	// Statistics is what the incremental strategy maintains for a GMM, as
	// of its last attach or refresh.
	Statistics *Footprint `json:"statistics,omitempty"`
}

// Decisions is every attached model's planner decision, the "planner"
// section of /statsz and /metrics.
type Decisions []PlannerDecision

// PlannerDecisions lists the per-model strategy decisions, sorted by
// model name. Like Counters, it reads a snapshot under the small counters
// lock only, so /statsz stays responsive while a refresh or attach holds
// the stream lock.
func (s *Stream) PlannerDecisions() Decisions {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return append(Decisions{}, s.plannerSnap...)
}

// snapshotPlansLocked rebuilds the planner-decision snapshot. Callers
// hold mu (lock order mu → cmu).
func (s *Stream) snapshotPlansLocked() {
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	snap := make([]PlannerDecision, 0, len(names))
	for _, name := range names {
		m := s.models[name]
		d := PlannerDecision{Model: name, Kind: string(m.kind)}
		switch m.kind {
		case serve.KindGMM:
			d.Strategy = "incremental"
			fp := m.stats.Footprint()
			d.Statistics = &fp
		case serve.KindNN:
			d.Strategy = m.refreshStrategy().String()
			if m.plan != nil {
				d.Estimates = m.plan.Estimates
			}
		}
		snap = append(snap, d)
	}
	s.cmu.Lock()
	s.plannerSnap = snap
	s.cmu.Unlock()
}

// Pending returns the number of fact rows ingested since the last
// refresh. Like Counters, it never blocks behind an in-flight refresh.
func (s *Stream) Pending() int64 {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.pending
}

// Counters returns a snapshot of the cumulative ingestion counters. It
// takes only the small counters lock, so /statsz stays responsive while
// a refresh or attach holds the stream for an O(dataset) pass.
func (s *Stream) Counters() Counters {
	s.cmu.Lock()
	c := s.counters
	c.PendingRows = s.pending
	s.cmu.Unlock()
	c.IngestQueueDepth = s.ingestLim.InFlight()
	c.IngestRejections = s.ingestRejections.Load()
	return c
}

// Ingest validates and applies one change batch: dimension changes first
// (inserts append; updates rewrite the stored tuple, patch the resident
// index and surgically invalidate the serving caches), then fact appends.
// Nothing is applied when any row fails validation. When the pending-row
// count reaches Policy.RefreshRows, a refresh runs before Ingest returns.
func (s *Stream) Ingest(b Batch) (IngestResult, error) {
	return s.IngestCtx(context.Background(), b)
}

// IngestCtx is Ingest with request-trace propagation: a sampled trace
// records phase spans for validation, dimension application, fact
// appends and (when the threshold fires) the auto-refresh, so a slow
// ingest can be attributed to the phase that ate the time.
func (s *Stream) IngestCtx(ctx context.Context, b Batch) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingestLocked(ctx, b)
}

// ingestLocked is the body of IngestCtx; WAL replay re-enters it (with
// s.replaying set) so recovered batches take the exact code path live
// ones did. Caller holds mu.
func (s *Stream) ingestLocked(ctx context.Context, b Batch) (IngestResult, error) {
	ctx, isp := trace.Start(ctx, "stream.ingest")
	defer isp.End()
	if isp.Active() {
		isp.SetInt("dims", int64(len(b.Dims)))
		isp.SetInt("facts", int64(len(b.Facts)))
	}
	var res IngestResult

	// Validate the whole batch up front — atomicity of rejection. Every
	// failure here is a ValidationError: nothing has been applied. New rids
	// are collected per table first, so a mid-level tuple may reference a
	// sub-dimension tuple inserted anywhere in the same batch. (A span
	// left open by an early validation return is closed by the trace's
	// Finish with the request's end time, which is also when it failed.)
	_, vsp := trace.Start(ctx, "stream.validate")
	newRids := make(map[string]map[int64]bool)
	for _, du := range b.Dims {
		js, ok := s.dimJ[du.Table]
		if !ok {
			continue // reported with its index in the validation pass below
		}
		if _, exists := s.idxs[js[0]].Pos(du.RID); !exists {
			if newRids[du.Table] == nil {
				newRids[du.Table] = make(map[int64]bool)
			}
			newRids[du.Table][du.RID] = true
		}
	}
	known := func(table string, key int64) bool {
		if js, ok := s.dimJ[table]; ok {
			if _, ok := s.idxs[js[0]].Pos(key); ok {
				return true
			}
		}
		return newRids[table][key]
	}
	for i, du := range b.Dims {
		js, ok := s.dimJ[du.Table]
		if !ok {
			return res, valErrf("stream: batch dim %d: no dimension table %q in this stream", i, du.Table)
		}
		j := js[0]
		if len(du.Features) != s.p.Dims[1+j] {
			return res, valErrf("stream: batch dim %d: table %q takes %d features, got %d",
				i, du.Table, s.p.Dims[1+j], len(du.Features))
		}
		refs := s.spec.Rs[j].Schema().Refs
		if len(du.FKs) != len(refs) {
			return res, valErrf("stream: batch dim %d: table %q takes %d sub-dimension keys, got %d",
				i, du.Table, len(refs), len(du.FKs))
		}
		for k, fk := range du.FKs {
			if !known(refs[k], fk) {
				return res, valErrf("stream: batch dim %d: table %q references unknown key %d in sub-dimension table %q",
					i, du.Table, fk, refs[k])
			}
		}
		if c := nonFinite(du.Features...); c >= 0 {
			return res, valErrf("stream: batch dim %d: table %q feature %d is %g, want a finite value",
				i, du.Table, c, du.Features[c])
		}
	}
	hasTarget := s.spec.S.Schema().HasTarget
	for i, fr := range b.Facts {
		if len(fr.Features) != s.p.Dims[0] {
			return res, valErrf("stream: batch fact %d (sid %d): fact table takes %d features, got %d",
				i, fr.SID, s.p.Dims[0], len(fr.Features))
		}
		if c := nonFinite(fr.Features...); c >= 0 {
			return res, valErrf("stream: batch fact %d (sid %d): feature %d is %g, want a finite value",
				i, fr.SID, c, fr.Features[c])
		}
		if nonFinite(fr.Target) >= 0 {
			return res, valErrf("stream: batch fact %d (sid %d): target is %g, want a finite value", i, fr.SID, fr.Target)
		}
		if !hasTarget && fr.Target != 0 {
			return res, valErrf("stream: batch fact %d (sid %d): fact table %q has no target column, got target %g",
				i, fr.SID, s.spec.S.Schema().Name, fr.Target)
		}
		if len(fr.FKs) != len(s.direct) {
			return res, valErrf("stream: batch fact %d (sid %d): %d foreign keys for %d direct dimension tables",
				i, fr.SID, len(fr.FKs), len(s.direct))
		}
		for d, fk := range fr.FKs {
			if name := s.idxs[s.direct[d]].Name(); !known(name, fk) {
				return res, valErrf("stream: batch fact %d (sid %d): unknown key %d in dimension table %q",
					i, fr.SID, fk, name)
			}
		}
	}

	vsp.End()

	// Write-ahead: the validated batch is logged — and, per the log's
	// fsync policy, durable — before any of it is applied. A crash past
	// this point replays the batch on recovery; a crash before it loses
	// a batch that was never acked.
	if s.wal != nil && !s.replaying {
		_, wsp := trace.Start(ctx, "stream.wal_append")
		var werr error
		s.walBuf, werr = appendBatchRecord(s.walBuf[:0], &b)
		if werr != nil {
			wsp.End()
			return res, werr
		}
		if _, err := s.wal.Append(s.walBuf); err != nil {
			wsp.End()
			return res, fmt.Errorf("stream: WAL append: %w", err)
		}
		wsp.End()
	}

	// Apply dimension changes.
	_, dsp := trace.Start(ctx, "stream.apply_dims")
	touchedDims := make(map[int]bool)
	anyDimUpdate := false
	for _, du := range b.Dims {
		j := s.dimJ[du.Table][0]
		tbl := s.spec.Rs[j]
		keys := make([]int64, 1+len(du.FKs))
		keys[0] = du.RID
		copy(keys[1:], du.FKs)
		tp := &storage.Tuple{Keys: keys, Features: du.Features}
		if pos, exists := s.idxs[j].Pos(du.RID); exists {
			// The resident index is loaded in append order, so the dense
			// index is the heap row id.
			if err := tbl.UpdateAt(int64(pos), tp); err != nil {
				return res, err
			}
			anyDimUpdate = true
			res.DimUpdates++
		} else {
			if err := tbl.Append(tp); err != nil {
				return res, err
			}
			touchedDims[j] = true
			res.DimInserts++
		}
		if s.eng != nil {
			if _, err := s.eng.ApplyDimUpdate(du.Table, du.RID, du.FKs, du.Features); err != nil {
				return res, err
			}
		} else {
			if _, err := s.idxs[j].Upsert(du.RID, du.FKs, du.Features); err != nil {
				return res, err
			}
		}
		s.mon.ObserveDimUpdate(du.Table, du.Features)
	}
	// With a WAL the per-batch heap flush is skipped: the log already
	// made the batch durable, and checkpoints write the heaps in bulk.
	if s.wal == nil {
		for j := range touchedDims {
			if err := s.spec.Rs[j].Flush(); err != nil {
				return res, err
			}
		}
	}
	if anyDimUpdate {
		// The stored per-group γ-sums were computed against the old
		// features: force a full GMM statistics rebuild at the next
		// refresh. NNs are marked too, so the next refresh retrains them
		// even without new fact rows.
		for _, m := range s.models {
			m.dirty = true
		}
	}
	s.cmu.Lock()
	s.counters.DimUpdates += uint64(res.DimUpdates)
	s.counters.DimInserts += uint64(res.DimInserts)
	s.cmu.Unlock()
	if dsp.Active() {
		dsp.SetInt("inserts", int64(res.DimInserts))
		dsp.SetInt("updates", int64(res.DimUpdates))
	}
	dsp.End()

	// Append fact rows.
	_, fsp := trace.Start(ctx, "stream.append_facts")
	for i := range b.Facts {
		fr := &b.Facts[i]
		keys := make([]int64, 1+len(fr.FKs))
		keys[0] = fr.SID
		copy(keys[1:], fr.FKs)
		if err := s.spec.S.Append(&storage.Tuple{Keys: keys, Features: fr.Features, Target: fr.Target}); err != nil {
			return res, err
		}
		s.observeFactLocked(fr)
	}
	if len(b.Facts) > 0 && s.wal == nil {
		if err := s.spec.S.Flush(); err != nil {
			return res, err
		}
	}
	res.Facts = len(b.Facts)
	s.cmu.Lock()
	s.pending += int64(len(b.Facts))
	s.counters.FactsIngested += uint64(len(b.Facts))
	s.counters.Batches++
	pending := s.pending
	s.cmu.Unlock()
	res.PendingRows = pending
	if fsp.Active() {
		fsp.SetInt("facts", int64(res.Facts))
	}
	fsp.End()

	if s.pol.RefreshRows > 0 && pending >= int64(s.pol.RefreshRows) {
		if _, err := s.refreshLocked(ctx, true); err != nil {
			return res, err
		}
		res.RefreshTriggered = true
		res.PendingRows = s.Pending()
	}
	// Re-evaluate every model's health verdict so a drift or staleness
	// transition fires with the batch that caused it, not at the next
	// scrape.
	s.mon.CheckAll()
	if err := s.maybeCheckpointLocked(); err != nil {
		return res, err
	}
	return res, nil
}

// observeFactLocked resolves one just-validated fact row to its full
// joined feature vector — through the same resident indexes serving
// uses — and folds it into the monitor's live drift sketches. The
// scratch buffers are reused under s.mu, so the observe path is O(1)
// per row with zero allocations; without a monitor it is a single nil
// check.
func (s *Stream) observeFactLocked(fr *FactRow) {
	if s.mon == nil {
		return
	}
	if err := s.rv.Resolve(fr.FKs, nil, s.monPos); err != nil {
		return // validated above; unreachable, but never fail an ingest for telemetry
	}
	copy(s.monX, fr.Features)
	for j, ix := range s.idxs {
		_, feats := ix.At(s.monPos[j])
		copy(s.monX[s.p.Offs[1+j]:], feats)
	}
	s.mon.ObserveJoined(s.monX)
}

// Refresh folds everything ingested so far into every attached model —
// one incremental EM step per GMM (cost ∝ rows absorbed this refresh),
// refreshEpochs warm-start epochs per NN — and publishes the refreshed
// models to the registry (version bump) when one is attached.
func (s *Stream) Refresh() (RefreshResult, error) {
	return s.RefreshCtx(context.Background())
}

// RefreshCtx is Refresh with request-trace propagation: a sampled trace
// records one span per refreshed model, keyed by the strategy the
// planner picked and the rows absorbed.
func (s *Stream) RefreshCtx(ctx context.Context) (RefreshResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Explicit refreshes are logged (automatic ones re-fire from their
	// triggering batch during replay, so they are not).
	if s.wal != nil && !s.replaying {
		s.walBuf = appendRefreshRecord(s.walBuf[:0])
		if _, err := s.wal.Append(s.walBuf); err != nil {
			return RefreshResult{}, fmt.Errorf("stream: WAL append: %w", err)
		}
	}
	res, err := s.refreshLocked(ctx, false)
	if err != nil {
		return res, err
	}
	return res, s.maybeCheckpointLocked()
}

// WALStats reports the write-ahead log's counters for /statsz and
// /metrics; zeros when durability is off.
func (s *Stream) WALStats() wal.Stats { return s.wal.Stats() }

// refreshLineageLocked advances the monitor's baseline for a
// just-refreshed model — folding the live window in with an exact
// sketch merge, no rescan — and returns the lineage to persist with the
// about-to-be-bumped registry version (nil without a monitor, which
// makes the registry carry the previous lineage forward).
func (s *Stream) refreshLineageLocked(name, strategy string, rows int64) *monitor.Lineage {
	if s.mon == nil {
		return nil
	}
	version := 1
	if s.reg != nil {
		if info, ok := s.reg.Get(name); ok {
			version = info.Version + 1
		}
	} else {
		version = 0 // no registry: keep the monitor's current version
	}
	return s.mon.NoteRefresh(name, version, strategy, rows)
}

func (s *Stream) refreshLocked(ctx context.Context, auto bool) (RefreshResult, error) {
	ctx, rsp := trace.Start(ctx, "stream.refresh")
	defer rsp.End()
	rsp.SetBool("auto", auto)
	var res RefreshResult
	s.refreshSeq++
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := s.models[name]
		mr := ModelRefresh{Name: name, Kind: string(m.kind)}
		_, msp := trace.Start(ctx, "stream.refresh.model")
		if msp.Active() {
			msp.SetAttr("model", name)
			msp.SetAttr("kind", string(m.kind))
		}
		switch m.kind {
		case serve.KindGMM:
			mr.Strategy = "incremental" // O(delta) sufficient-statistics maintenance
			rebase := m.dirty || (s.pol.RebaselineEvery > 0 && s.refreshSeq%uint64(s.pol.RebaselineEvery) == 0)
			if rebase {
				m.stats.Reset(m.gmdl)
				s.cmu.Lock()
				s.counters.Rebaselines++
				s.cmu.Unlock()
				mr.Rebaselined = true
			}
			before := m.stats.Rows()
			if err := m.stats.Absorb(m.gmdl, s.spec.S, s.pol.NumWorkers); err != nil {
				return res, err
			}
			mr.RowsAbsorbed = m.stats.Rows() - before
			if m.stats.Rows() == 0 {
				msp.End()
				continue // nothing to refresh from yet
			}
			if mr.RowsAbsorbed == 0 && !rebase {
				// Nothing changed since the last refresh: skip the
				// M-step and the registry version bump, which would
				// republish identical parameters and needlessly flush
				// the serving engine's warm per-dimension caches.
				msp.End()
				continue
			}
			model, err := m.stats.Step(m.gmdl)
			if err != nil {
				return res, err
			}
			if err := checkFiniteGMM(name, model); err != nil {
				return res, err
			}
			m.gmdl = model
			m.dirty = false
			mr.LogLikelihood = m.stats.LogLikelihood()
			lin := s.refreshLineageLocked(name, mr.Strategy, m.stats.Rows())
			if s.reg != nil {
				if err := s.reg.SaveGMMLineage(name, model, lin); err != nil {
					return res, err
				}
			}
		case serve.KindNN:
			n := s.spec.S.NumTuples()
			if n == m.lastRows && !m.dirty && m.lastRows > 0 {
				// No new rows and no dimension change: more warm-start
				// epochs would silently drift the network with no new
				// information.
				msp.End()
				continue
			}
			if m.dirty || m.plan == nil {
				// Dimension updates shift the statistics the attach-time
				// plan was priced on; replan once, then keep reusing it.
				m.plan = s.planNN(ctx, m.net)
			}
			strat := m.refreshStrategy()
			tres, err := nn.Train(s.db, s.spec, strat, s.refreshConfig(m.net))
			if err != nil {
				return res, err
			}
			if err := checkFiniteNN(name, tres.Net); err != nil {
				return res, err
			}
			mr.Strategy = strat.String()
			m.net = tres.Net
			m.dirty = false
			m.lastRows = n
			mr.RowsAbsorbed = n
			lin := s.refreshLineageLocked(name, mr.Strategy, n)
			if s.reg != nil {
				if err := s.reg.SaveNNLineage(name, tres.Net, lin); err != nil {
					return res, err
				}
			}
		}
		if msp.Active() {
			msp.SetAttr("strategy", mr.Strategy)
			msp.SetInt("rows_absorbed", mr.RowsAbsorbed)
		}
		msp.End()
		res.Models = append(res.Models, mr)
	}
	s.cmu.Lock()
	s.pending = 0
	s.counters.Refreshes++
	if auto {
		s.counters.AutoRefreshes++
	}
	s.cmu.Unlock()
	s.snapshotPlansLocked() // replans above may have changed the decisions
	return res, nil
}
