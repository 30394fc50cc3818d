package serve

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"factorml/internal/api"
	"factorml/internal/core"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/metrics"
	"factorml/internal/monitor"
	"factorml/internal/nn"
	"factorml/internal/parallel"
	"factorml/internal/trace"
)

// errIncompatibleModel marks a registered model whose shape cannot be
// scored over this engine's dimension hierarchy (mapped to 400
// model_incompatible by the HTTP layer, versus 500 for genuine faults).
type errIncompatibleModel struct{ msg string }

func (e errIncompatibleModel) Error() string { return e.msg }

// IsIncompatibleModel reports whether err marks a model/hierarchy shape
// mismatch.
func IsIncompatibleModel(err error) bool {
	_, ok := err.(errIncompatibleModel)
	return ok
}

// DefaultCacheEntries is the per-(model, direct dimension) LRU capacity
// when EngineConfig.CacheEntries is zero.
const DefaultCacheEntries = 4096

// batchRows is the number of request rows per worker chunk. Like every
// chunk-geometry constant in this codebase it is independent of the
// worker count, and predictions are bit-identical for every value.
const batchRows = 64

// EngineConfig tunes the prediction engine.
type EngineConfig struct {
	// NumWorkers sizes the worker pool a request batch fans out over:
	// 0 = all CPUs, 1 = sequential, n > 1 = n workers. Predictions are
	// bit-identical for every value.
	NumWorkers int

	// CacheEntries bounds each per-(model, direct dimension) LRU of cached
	// partial results (entries, not bytes); an entry covers one direct
	// dimension tuple with its whole subtree. 0 selects
	// DefaultCacheEntries. Cache hits and misses never change a prediction
	// — cached partials are pure functions of the model and the subtree's
	// tuples — only its cost. One entry costs its value's floats × 8 bytes
	// (an NN: the first hidden layer's width; a GMM: K × (1 + dS), K for a
	// diagonal model — no PD: a full model over two or more direct
	// dimensions forms it from the resident tuples on every hit), a 40-byte
	// slot, an 8-byte map entry (ordinal → slot) and 4 bytes per tuple of
	// the subtree below the direct one (its version). Memory follows
	// occupancy: capacity no tuple fills costs nothing, and
	// Stats.DimCacheBytes reports what is held.
	CacheEntries int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	return c
}

// Row is one normalized prediction request: the fact tuple's own features
// plus one foreign key per *direct* dimension table (in the engine's
// dimension order). Sub-dimension hops of a snowflake hierarchy are
// resolved by the engine from the pinned dimension tuples; the joined
// feature vector is never materialized.
type Row struct {
	Fact []float64
	FKs  []int64
}

// Prediction is the engine's result for one row. Exactly one of the value
// fields is meaningful, selected by the model kind; Err is set when the row
// failed (unknown foreign key, wrong width) while the rest of the batch
// proceeded.
type Prediction struct {
	// Output is the network output (KindNN).
	Output float64
	// LogProb is ln p(x) under the mixture (KindGMM).
	LogProb float64
	// Cluster is the most responsible mixture component (KindGMM).
	Cluster int
	// Err describes a per-row failure; empty on success.
	Err string
	// Code is the stable machine-readable code of the failure (one of the
	// api.Code* row-error constants); empty on success.
	Code string
}

// modelState is the engine's prepared per-model-version scoring state. It
// scores a snowflake as a star over its direct dimensions, as the
// factorized trainers and the stream's refresh do: the partition is the
// fact part, then one part per direct dimension as wide as its subtree
// (the subtree's features in preorder), and each direct dimension has one
// cache of partials keyed by the direct tuple and kept fresh by the
// subtree's version vector. On a star every subtree is one node.
type modelState struct {
	info ModelInfo
	// ent is the registry entry this state was built from. Staleness is
	// detected by entry identity, not version number: every save installs
	// a fresh (immutable) entry, and a delete followed by a re-save under
	// the same name restarts version numbering at 1, which version
	// comparison alone would miss.
	ent     *entry
	p       core.Partition
	net     *nn.Network // KindNN
	scorer  *gmm.Scorer // KindGMM
	caches  []*dimCache // one per direct dimension
	scratch sync.Pool   // *predScratch
	// A GMM value holds K records of Self and crossW floats of CrossS (dS
	// for a full model, none for a diagonal one).
	crossW int
	// means is set only for a full GMM over two or more direct dimensions:
	// the fused kernel's pair terms read each part's PD = x − µ_c, which no
	// value holds, so a hit reads the subtree's features to form it.
	// means[d] is part 1+d's slice of every component mean, flat K × width.
	means [][]float64
}

// predScratch is per-goroutine scoring scratch, per direct dimension d:
// x[d] receives the subtree's features and vers[d] its version vector;
// qcaches[d] holds the K QuadCache views of the current GMM value: Self
// loaded, CrossS aliasing the shared value, PD component c's row of pd[d]
// (flat K × width, the scratch's own buffer). pos takes Hop's ordinals.
type predScratch struct {
	fwd     *nn.ForwardScratch
	parts   [][]float64
	x       [][]float64
	vers    [][]uint32
	pd      [][]float64
	qcaches [][]core.QuadCache
	gsc     *gmm.ScoreScratch
	pos     []int
}

// valueLen is the length of a cached value: the NN layer-1 partial t_m, or
// the GMM's K per-component (Self, CrossS) records.
func (st *modelState) valueLen() int {
	if st.net != nil {
		return st.net.HiddenWidth()
	}
	return st.scorer.K() * (1 + st.crossW)
}

// bind points QuadCache views at a GMM value: Self is loaded, CrossS
// aliases the value, and nothing is copied.
func (st *modelState) bind(views []core.QuadCache, val []float64) {
	stride, cw := len(val)/len(views), st.crossW
	for c := range views {
		v := val[c*stride : (c+1)*stride : (c+1)*stride]
		views[c].Self = v[0]
		views[c].CrossS = v[1 : 1+cw : 1+cw]
	}
}

// Engine scores request batches against registered models over a fixed
// dimension hierarchy (a one-hop star or a flattened snowflake plan),
// without materializing the join. It is safe for concurrent use.
type Engine struct {
	reg *Registry
	cfg EngineConfig
	// idxs holds one resident index per plan node; nodes referencing the
	// same table share one index (and hence one in-memory copy). Cached
	// partials are per direct dimension: rv.Direct()[d] is direct
	// dimension d's plan node, and its subtree is one partition part.
	idxs []*join.ResidentIndex
	rv   *join.Resolver
	// partWidths[d] is the feature width of direct dimension d's subtree;
	// sumDR is their total, so a model of dimension D has a fact part of
	// D - sumDR.
	partWidths []int
	sumDR      int

	mu     sync.Mutex
	states map[string]*modelState

	// mon, when set, receives sampled prediction-quality telemetry
	// (atomic pointer: a nil load costs one branch and zero allocations,
	// keeping the monitoring-off hot path untouched).
	mon atomic.Pointer[monitor.Monitor]

	requests         atomic.Uint64
	rows             atomic.Uint64
	predictNs        atomic.Uint64
	dimInvalidations atomic.Uint64
}

// NewEngine builds an engine over the flattened dimension hierarchy (join
// order: the model's feature layout must be [fact features, node 0
// features, …] — the same preorder the training-side join streams). The
// dimension tables are pinned in memory, mirroring the resident-relation
// assumption of the training-side block-nested-loops join; a table
// referenced from several places in the hierarchy is pinned once and
// shared. Use join.ExpandDims to build the plan from the direct dimension
// tables.
func NewEngine(reg *Registry, plan *join.DimPlan, cfg EngineConfig) (*Engine, error) {
	if reg == nil {
		return nil, fmt.Errorf("serve: engine needs a registry")
	}
	if plan == nil || len(plan.Tables) == 0 {
		return nil, fmt.Errorf("serve: engine needs at least one dimension table")
	}
	e := &Engine{reg: reg, cfg: cfg.withDefaults(), states: make(map[string]*modelState)}
	idxs, err := plan.BuildIndexes(nil)
	if err != nil {
		return nil, err
	}
	e.idxs = idxs
	rv, err := join.NewResolver(plan.Parent, plan.Ref, e.idxs)
	if err != nil {
		return nil, err
	}
	e.rv = rv
	for _, n := range rv.Direct() {
		e.partWidths = append(e.partWidths, rv.SubtreeWidth(n))
		e.sumDR += rv.SubtreeWidth(n)
	}
	return e, nil
}

// Registry returns the registry the engine serves from.
func (e *Engine) Registry() *Registry { return e.reg }

// SetMonitor installs (or, with nil, removes) the health monitor that
// receives sampled prediction-quality values; a Server built over the
// engine afterwards serves its verdicts. Recording is passive:
// predictions are bit-identical with and without a monitor.
func (e *Engine) SetMonitor(m *monitor.Monitor) { e.mon.Store(m) }

// DimensionTables returns the names of the engine's dimension tables in
// join order.
func (e *Engine) DimensionTables() []string {
	names := make([]string, len(e.idxs))
	for i, ix := range e.idxs {
		names[i] = ix.Name()
	}
	return names
}

// Index returns the engine's resident index over the named dimension
// table, so the streaming subsystem can share one in-memory copy of the
// dimension data instead of building its own.
func (e *Engine) Index(table string) (*join.ResidentIndex, bool) {
	for _, ix := range e.idxs {
		if ix.Name() == table {
			return ix, true
		}
	}
	return nil, false
}

// ApplyDimUpdate installs new foreign keys and features for one dimension
// tuple in the engine's resident index. Later predictions reaching the
// tuple recompute against the new features, so a dimension update is
// observable without a restart — and without touching any other cache
// entry: the update bumps the tuple's version, so exactly the cached
// partials whose subtree reaches it miss (their version vector moved).
// When the table is a direct dimension, the entry of the tuple itself is
// also dropped at once from every prepared model state (a dimension
// invalidation); an entry over a deeper tuple stays until it is replaced
// or evicted, and is never served. subs must carry the tuple's
// sub-dimension keys when the table has any (nil for a leaf table).
func (e *Engine) ApplyDimUpdate(table string, rid int64, subs []int64, feats []float64) (isNew bool, err error) {
	first := -1
	for i, ix := range e.idxs {
		if ix.Name() == table {
			first = i
			break
		}
	}
	if first < 0 {
		return false, fmt.Errorf("serve: engine has no dimension table %q", table)
	}
	isNew, err = e.idxs[first].Upsert(rid, subs, feats)
	if err != nil {
		return false, err
	}
	if !isNew {
		ord, _ := e.idxs[first].Pos(rid) // ordinals are stable: rid is still there
		e.mu.Lock()
		for _, st := range e.states {
			for d, n := range e.rv.Direct() {
				if e.idxs[n].Name() == table && st.caches[d].remove(int32(ord)) {
					e.dimInvalidations.Add(1)
				}
			}
		}
		e.mu.Unlock()
	}
	return isNew, nil
}

// state returns the prepared scoring state for the named model, rebuilding
// it when the registry holds a newer version (saves bump versions, so a
// re-saved model invalidates its cached partials).
func (e *Engine) state(name string) (*modelState, error) {
	ent, ok := e.reg.lookup(name)
	if !ok {
		// Drop any state left over from a deleted model so its caches are
		// reclaimed (Stats prunes the remaining cases).
		e.mu.Lock()
		delete(e.states, name)
		e.mu.Unlock()
		return nil, errUnknownModel{name}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.states[name]; ok && st.ent == ent {
		return st, nil
	}
	dS := ent.info.Dim - e.sumDR
	if dS < 0 {
		return nil, errIncompatibleModel{fmt.Sprintf("serve: model %q has dimension %d, smaller than the %d dimension-table features",
			name, ent.info.Dim, e.sumDR)}
	}
	p := core.NewPartition(append([]int{dS}, e.partWidths...))
	st := &modelState{info: ent.info, ent: ent, p: p}
	switch ent.info.Kind {
	case KindNN:
		st.net = ent.nn
	case KindGMM:
		scorer, err := ent.gmm.NewScorer(p)
		if err != nil {
			return nil, err
		}
		st.scorer = scorer
		if !ent.gmm.Diagonal {
			st.crossW = dS
			if len(e.partWidths) >= 2 {
				st.means = make([][]float64, len(e.partWidths))
				for d := range st.means {
					for _, mu := range ent.gmm.Means {
						st.means[d] = append(st.means[d], p.Slice(mu, 1+d)...)
					}
				}
			}
		}
	default:
		return nil, fmt.Errorf("serve: model %q has unknown kind %q", name, ent.info.Kind)
	}
	direct := e.rv.Direct()
	q := len(direct)
	st.caches = make([]*dimCache, q)
	for d, n := range direct {
		st.caches[d] = newDimCache(e.cfg.CacheEntries, e.rv.SubtreeEnd(n)-n)
	}
	st.scratch.New = func() any {
		sc := &predScratch{
			parts:   make([][]float64, q),
			x:       make([][]float64, q),
			vers:    make([][]uint32, q),
			qcaches: make([][]core.QuadCache, q),
			pos:     make([]int, len(e.idxs)),
		}
		for d, n := range direct {
			sc.x[d] = make([]float64, e.partWidths[d])
			sc.vers[d] = make([]uint32, e.rv.SubtreeEnd(n)-n)
		}
		if st.net != nil {
			sc.fwd = st.net.NewForwardScratch()
		}
		if st.scorer != nil {
			sc.gsc = st.scorer.NewScratch()
			k := st.scorer.K()
			sc.pd = make([][]float64, q)
			for d := range sc.qcaches {
				w := e.partWidths[d]
				sc.pd[d] = make([]float64, k*w)
				sc.qcaches[d] = make([]core.QuadCache, k)
				for c := range sc.qcaches[d] {
					sc.qcaches[d][c].PD = sc.pd[d][c*w : (c+1)*w : (c+1)*w]
				}
			}
		}
		return sc
	}
	e.states[name] = st
	return st, nil
}

// dimPartial resolves direct dimension d's tuple from the row's foreign
// keys fks and points sc at its cached partial, computing and caching it
// on a miss: the NN layer-1 partial pre-activation t_m (§VI-A1) of the
// subtree's features goes to sc.parts[d], the K GMM quadratic-form caches
// (Eq. 7-12) to the views sc.qcaches[d]. The value is a pure function of
// (model version, subtree tuples), so hits, misses and racing
// double-computations all yield identical bits.
//
// Every probe walks the subtree (join.Resolver.Subtree) for its version
// vector, the cache token; a miss walks it again copying the features,
// allocates the one value, fills it (a GMM through the views bound to
// it), then puts it under the vector that walk read, which names exactly
// the features it copied; nothing writes a value after the put. A hit
// reads no features — except for a full GMM over two or more direct
// dimensions, whose pair terms read PD = x − µ_c: that walk copies them
// and forms the PD with the same VecSub core.FillQuadCache runs, so the
// kernel reads the same bits either way. An unknown key, direct or on the
// way down the subtree, is the returned error.
// A traced request additionally records one "cache.lookup" span per
// probe (table + hit/miss), the deepest level of the request trace; the
// zero Span passed on the untraced path makes every span call a no-op.
func (e *Engine) dimPartial(st *modelState, sc *predScratch, d int, fks []int64, psp trace.Span) error {
	n := e.rv.Direct()[d]
	if _, err := e.rv.Hop(n, fks, sc.pos); err != nil {
		return err
	}
	ord := sc.pos[n]
	var lsp trace.Span
	if psp.Active() {
		lsp = psp.Child("cache.lookup")
		lsp.SetAttr("table", e.idxs[n].Name())
	}
	x, vers := sc.x[d], sc.vers[d]
	pdOnHit := st.means != nil
	var feats []float64
	if pdOnHit {
		feats = x
	}
	if err := e.rv.Subtree(n, ord, feats, vers); err != nil {
		lsp.End()
		return err
	}
	val, hit := st.caches[d].get(int32(ord), vers)
	switch {
	case !hit:
		if !pdOnHit {
			if err := e.rv.Subtree(n, ord, x, vers); err != nil {
				lsp.End()
				return err
			}
		}
		val = make([]float64, st.valueLen())
		if st.net != nil {
			st.net.PartialPreAct(val, st.p.Offs[1+d], x)
		} else {
			views := sc.qcaches[d]
			st.bind(views, val)
			st.scorer.FillDimCaches(views, 1+d, x, nil)
			for c := range views {
				val[c*len(val)/len(views)] = views[c].Self
			}
		}
		st.caches[d].put(int32(ord), vers, val)
	case st.scorer != nil:
		st.bind(sc.qcaches[d], val)
		if pdOnHit {
			pd, mu, w := sc.pd[d], st.means[d], len(x)
			for c := 0; c < len(mu); c += w {
				linalg.VecSub(pd[c:c+w], x, mu[c:c+w])
			}
		}
	}
	if st.net != nil {
		sc.parts[d] = val
	}
	lsp.SetBool("hit", hit)
	lsp.End()
	return nil
}

// scoreRow fills out for one row. Row-level failures land in out.Err with
// a stable machine-readable code in out.Code. out is fully overwritten —
// callers may hand in recycled Prediction buffers.
func (e *Engine) scoreRow(st *modelState, sc *predScratch, row *Row, out *Prediction, sp trace.Span) {
	*out = Prediction{}
	if len(row.Fact) != st.p.Dims[0] {
		out.Err = fmt.Sprintf("row has %d fact features, model %q wants %d", len(row.Fact), st.info.Name, st.p.Dims[0])
		out.Code = api.CodeRowWidthMismatch
		return
	}
	for c, x := range row.Fact {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			out.Err = fmt.Sprintf("fact feature %d is %g, want a finite value", c, x)
			out.Code = api.CodeNonFiniteFeature
			return
		}
	}
	if len(row.FKs) != e.rv.NumDirect() {
		out.Err = fmt.Sprintf("row has %d foreign keys, engine probes %d direct dimension tables", len(row.FKs), e.rv.NumDirect())
		out.Code = api.CodeFKCountMismatch
		return
	}
	for d := range st.caches {
		if err := e.dimPartial(st, sc, d, row.FKs, sp); err != nil {
			out.Err = err.Error()
			out.Code = api.CodeUnknownForeignKey
			return
		}
	}
	if st.net != nil {
		out.Output = st.net.ForwardFactorized(sc.fwd, row.Fact, sc.parts)
		return
	}
	out.LogProb, out.Cluster = st.scorer.Score(row.Fact, sc.qcaches, sc.gsc)
}

// PredictCtx scores a batch of rows against the named model. The batch is
// cut into batchRows-row chunks fanned across the worker pool; each
// prediction lands at its row's index, so the response order — and,
// because every cached partial is pure, every floating-point result — is
// bit-identical for any worker count. Per-row failures are reported in
// Prediction.Err without failing the batch; batch-level failures (unknown
// model, model/table shape mismatch) return an error.
//
// When ctx carries a sampled trace (internal/trace), the batch records an
// "engine.predict" span, one "engine.chunk" span per worker chunk and
// one "cache.lookup" span per dimension probe. On an untraced context
// the span calls are no-ops and the hot path allocates nothing extra.
func (e *Engine) PredictCtx(ctx context.Context, name string, rows []Row) ([]Prediction, ModelInfo, error) {
	out := make([]Prediction, len(rows))
	info, err := e.PredictIntoCtx(ctx, name, rows, out)
	if err != nil {
		return nil, ModelInfo{}, err
	}
	return out, info, nil
}

// PredictInto is PredictIntoCtx with a background context.
func (e *Engine) PredictInto(name string, rows []Row, out []Prediction) (ModelInfo, error) {
	return e.PredictIntoCtx(context.Background(), name, rows, out)
}

// PredictIntoCtx is PredictCtx writing into a caller-owned result slice
// (len(out) must equal len(rows); every element is overwritten) — the
// zero-allocation variant the HTTP layer's pooled response buffers drive.
// With one worker the chunk loop runs inline on the calling goroutine —
// no fan-out machinery, no closures, nothing on the heap — and the steady
// state (warm dimension caches, pooled scratch) performs zero allocations
// per call, pinned by TestPredictZeroAlloc. The chunk geometry and
// per-row arithmetic are identical to the fanned-out path, so results are
// bit-identical for every worker count.
func (e *Engine) PredictIntoCtx(ctx context.Context, name string, rows []Row, out []Prediction) (ModelInfo, error) {
	if len(out) != len(rows) {
		return ModelInfo{}, fmt.Errorf("serve: result buffer has %d slots for %d rows", len(out), len(rows))
	}
	start := time.Now()
	st, err := e.state(name)
	if err != nil {
		return ModelInfo{}, err
	}
	chunks := (len(rows) + batchRows - 1) / batchRows
	nw := parallel.Workers(e.cfg.NumWorkers)
	if nw > chunks {
		nw = chunks // tiny batches run inline; geometry is unchanged
	}
	_, esp := trace.Start(ctx, "engine.predict")
	if esp.Active() {
		esp.SetAttr("model", name)
		esp.SetInt("rows", int64(len(rows)))
		esp.SetInt("chunks", int64(chunks))
		esp.SetInt("workers", int64(nw))
		esp.SetInt("batch_rows", int64(batchRows))
	}
	if nw <= 1 {
		sc := st.scratch.Get().(*predScratch)
		for s := 0; s < len(rows); s += batchRows {
			end := s + batchRows
			if end > len(rows) {
				end = len(rows)
			}
			csp := esp.Child("engine.chunk")
			if csp.Active() {
				csp.SetInt("row_start", int64(s))
				csp.SetInt("rows", int64(end-s))
			}
			for i := s; i < end; i++ {
				e.scoreRow(st, sc, &rows[i], &out[i], csp)
			}
			csp.End()
		}
		st.scratch.Put(sc)
	} else {
		err = parallel.Run(nw,
			func(f *parallel.Feed[[2]int]) error {
				for s := 0; s < len(rows); s += batchRows {
					end := s + batchRows
					if end > len(rows) {
						end = len(rows)
					}
					if err := f.Emit([2]int{s, end}); err != nil {
						return err
					}
				}
				return nil
			},
			func(rg [2]int) (struct{}, error) {
				csp := esp.Child("engine.chunk")
				if csp.Active() {
					csp.SetInt("row_start", int64(rg[0]))
					csp.SetInt("rows", int64(rg[1]-rg[0]))
				}
				sc := st.scratch.Get().(*predScratch)
				for i := rg[0]; i < rg[1]; i++ {
					e.scoreRow(st, sc, &rows[i], &out[i], csp)
				}
				st.scratch.Put(sc)
				csp.End()
				return struct{}{}, nil
			},
			nil)
	}
	if err != nil {
		esp.Fail(err.Error())
		esp.End()
		return ModelInfo{}, err
	}
	esp.End()
	e.requests.Add(1)
	e.rows.Add(uint64(len(rows)))
	e.predictNs.Add(uint64(time.Since(start).Nanoseconds()))
	// Sampled prediction-quality telemetry, after scoring: the scored
	// values feed the model's live quality sketch (GMM per-row
	// log-likelihood, NN output) without touching a single prediction.
	if m := e.mon.Load(); m != nil && m.SampleQuality(name) {
		for i := range out {
			if out[i].Err != "" {
				continue
			}
			if st.scorer != nil {
				m.ObserveQuality(name, out[i].LogProb)
			} else {
				m.ObserveQuality(name, out[i].Output)
			}
		}
	}
	return st.info, nil
}

// Stats is a snapshot of the engine's serving counters, the top level of
// /statsz.
type Stats struct {
	Models          int     `json:"models"`
	Requests        uint64  `json:"requests"`
	Rows            uint64  `json:"rows"`
	DimCacheHits    uint64  `json:"dim_cache_hits"`
	DimCacheMisses  uint64  `json:"dim_cache_misses"`
	DimCacheHitRate float64 `json:"dim_cache_hit_rate"`
	DimCacheEntries int     `json:"dim_cache_entries"`
	// DimCacheBytes is what the live caches hold: their values plus slot
	// and map bookkeeping.
	DimCacheBytes int `json:"dim_cache_bytes"`
	// ResidentBytes is what the resident dimension indexes hold: their
	// feature, sub-key and version arenas (and a sparse index's key map),
	// each table counted once.
	ResidentBytes int `json:"resident_bytes"`
	// DimInvalidations counts cache entries surgically dropped by
	// streaming dimension updates (ApplyDimUpdate).
	DimInvalidations uint64  `json:"dim_invalidations"`
	PredictNsTotal   uint64  `json:"predict_ns_total"`
	AvgRowMicros     float64 `json:"avg_row_micros"`
}

// Samples emits the engine counters as factorml_engine_* samples.
func (s Stats) Samples(emit metrics.Emit) {
	emit.Gauge("factorml_engine_models", "Registered models.", float64(s.Models))
	emit.Counter("factorml_engine_predict_requests_total", "Predict batches scored.", float64(s.Requests))
	emit.Counter("factorml_engine_predict_rows_total", "Prediction rows scored.", float64(s.Rows))
	emit.Counter("factorml_engine_dim_cache_hits_total", "Per-dimension-tuple partial cache hits.", float64(s.DimCacheHits))
	emit.Counter("factorml_engine_dim_cache_misses_total", "Per-dimension-tuple partial cache misses.", float64(s.DimCacheMisses))
	emit.Gauge("factorml_engine_dim_cache_hit_rate", "Cache hit fraction since boot.", s.DimCacheHitRate)
	emit.Gauge("factorml_engine_dim_cache_entries", "Live cache entries across models.", float64(s.DimCacheEntries))
	emit.Gauge("factorml_engine_dim_cache_bytes", "Bytes held by live cache entries across models.", float64(s.DimCacheBytes))
	emit.Gauge("factorml_engine_resident_bytes", "Bytes held by the resident dimension indexes.", float64(s.ResidentBytes))
	emit.Counter("factorml_engine_dim_invalidations_total", "Cache entries dropped by streaming dimension updates.", float64(s.DimInvalidations))
	emit.Counter("factorml_engine_predict_seconds_total", "Cumulative in-engine predict time.", float64(s.PredictNsTotal)/1e9)
}

// Stats returns cumulative serving counters across all models. States of
// models that have been deleted from the registry are pruned (their caches
// reclaimed and their counters dropped) rather than reported as phantom
// cache traffic.
func (e *Engine) Stats() Stats {
	s := Stats{
		Models: e.reg.Len(), Requests: e.requests.Load(), Rows: e.rows.Load(),
		DimInvalidations: e.dimInvalidations.Load(), PredictNsTotal: e.predictNs.Load(),
	}
	for j, ix := range e.idxs {
		if !slices.Contains(e.idxs[:j], ix) { // a shared table is pinned once
			s.ResidentBytes += ix.Bytes()
		}
	}
	e.mu.Lock()
	for name, st := range e.states {
		if _, ok := e.reg.lookup(name); !ok {
			delete(e.states, name)
			continue
		}
		for _, c := range st.caches {
			h, m := c.counters()
			s.DimCacheHits += h
			s.DimCacheMisses += m
			n, b := c.size()
			s.DimCacheEntries += n
			s.DimCacheBytes += b
		}
	}
	e.mu.Unlock()
	if total := s.DimCacheHits + s.DimCacheMisses; total > 0 {
		s.DimCacheHitRate = float64(s.DimCacheHits) / float64(total)
	}
	if s.Rows > 0 {
		s.AvgRowMicros = float64(s.PredictNsTotal) / 1e3 / float64(s.Rows)
	}
	return s
}
