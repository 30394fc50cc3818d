package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"factorml"
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/nn"
	"factorml/internal/plan"
	"factorml/internal/serve"
	"factorml/internal/storage"
	"factorml/internal/stream"
	"factorml/internal/wal"
)

// layerSink keeps the compiler from discarding probe loops.
var layerSink float64

// probes measures the layers from outside, in the traced run only: every
// number is the time of calls into a layer's exported functions on the
// workload's own tables, or a counter the layer already exports. The
// probes run after the workload, on the training database's directory
// reopened through internal/storage.
type probes struct {
	r    *run
	ms   []metric
	db   *storage.Database
	spec *join.Spec
	n    int // fact rows

	idxs []*join.ResidentIndex
	rv   *join.Resolver
	p    core.Partition
	// pos holds the resolved per-node tuple positions of the first
	// len(pos)/nodes log rows.
	pos   []int
	nodes int
	rows  int // log rows resolved into pos

	gen *predictClient  // request-row generator of the engine and HTTP probes
	reg *serve.Registry // see registry
}

func (pb *probes) add(name, unit string, v float64) {
	pb.ms = append(pb.ms, metric{name: name, unit: unit, value: v})
}

// timeIt runs fn under a span and returns its wall-clock.
func (pb *probes) timeIt(name string, fn func() error) (time.Duration, error) {
	sp := pb.r.rec.start(name, "layers", 0, 0)
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	pb.r.rec.end(sp)
	if err != nil {
		return dt, fmt.Errorf("%s: %w", name, err)
	}
	return dt, nil
}

// best returns the fastest of three timings of fn: for a single-threaded
// loop over fixed input the fastest run is the one least disturbed.
func (pb *probes) best(name string, fn func() error) (time.Duration, error) {
	var min time.Duration
	for i := 0; i < 3; i++ {
		dt, err := pb.timeIt(name, fn)
		if err != nil {
			return 0, err
		}
		if i == 0 || dt < min {
			min = dt
		}
	}
	return min, nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics runs every probe and returns the per-layer metrics in
// BENCHMARK.json order.
func (r *run) layerMetrics() ([]metric, error) {
	// The facade holds the training directory open; hand it over.
	if err := r.e.trainDB.Close(); err != nil {
		return nil, err
	}
	r.e.trainDB = nil
	db, err := storage.Open(r.e.trainDir, storage.Options{PoolPages: -1})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	pb := &probes{r: r, db: db, n: r.sh.logRows}
	fact, err := db.Table(factTable)
	if err != nil {
		return nil, err
	}
	var direct []*storage.Table
	for _, name := range r.sh.directNames() {
		t, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		direct = append(direct, t)
	}
	if pb.spec, err = join.NewSnowflakeSpec(fact, direct, db.Table); err != nil {
		return nil, err
	}
	for _, step := range []func() error{
		pb.storageLayer, pb.joinLayer, pb.factorLayer, pb.gmmLayer, pb.nnLayer, pb.linalgLayer,
		pb.parallelLayer, pb.planLayer, pb.serveLayer, pb.streamLayer, pb.walLayer, pb.telemetryLayer,
	} {
		if err := step(); err != nil {
			return nil, err
		}
		r.boundary()
	}
	return pb.ms, nil
}

func (pb *probes) storageLayer() error {
	fact := pb.spec.S
	dt, err := pb.best("storage.scan", func() error {
		sc := fact.NewScanner()
		for sc.Next() {
			layerSink += sc.Tuple().Target
		}
		return sc.Err()
	})
	if err != nil {
		return err
	}
	pb.add("storage.scan_ns_per_tuple", "ns", perOp(dt, pb.n))

	d := pb.r.e.data
	nApp := pb.n / 4
	dt, err = pb.best("storage.append", func() error {
		tbl, err := pb.db.CreateTable(fact.Schema().Clone("probe_append"))
		if err != nil {
			return err
		}
		keys := make([]int64, 1+d.nFK)
		for i := 0; i < nApp; i++ {
			keys[0] = int64(i)
			copy(keys[1:], d.factFKs(i))
			if err := tbl.Append(&storage.Tuple{Keys: keys, Features: d.factX(i), Target: d.y[i]}); err != nil {
				return err
			}
		}
		if err := tbl.Flush(); err != nil {
			return err
		}
		return pb.db.DropTable("probe_append")
	})
	if err != nil {
		return err
	}
	pb.add("storage.append_ns_per_tuple", "ns", perOp(dt, nApp))

	f := pb.r.facts
	pb.add("storage.pool_hit_ratio", "ratio", 1-ratio(float64(f["gmm_f"].phys), float64(f["gmm_f"].reads)))
	for _, s := range strategies {
		pb.add("storage.pages_read."+s.key, "pages", float64(f["gmm_"+s.key].reads))
	}
	return nil
}

func (pb *probes) joinLayer() error {
	noop := func(_ int64, x []float64, y float64) error { layerSink += y; return nil }
	dt, err := pb.best("join.stream", func() error { return join.Stream(pb.spec, noop) })
	if err != nil {
		return err
	}
	pb.add("join.stream_ns_per_row", "ns", perOp(dt, pb.n))

	dt, err = pb.timeIt("join.materialize", func() error {
		if _, _, err := join.Materialize(pb.db, pb.spec, "probe_T"); err != nil {
			return err
		}
		return pb.db.DropTable("probe_T")
	})
	if err != nil {
		return err
	}
	pb.add("join.materialize_s", "s", dt.Seconds())

	pl := pb.spec.Plan()
	dt, err = pb.timeIt("join.resident_build", func() error {
		var err error
		pb.idxs, err = pl.BuildIndexes(nil)
		return err
	})
	if err != nil {
		return err
	}
	pb.add("join.resident_build_s", "s", dt.Seconds())

	ix := pb.idxs[0]
	const lookups = 1 << 18
	rng := rand.New(rand.NewSource(pb.r.seed))
	keys := make([]int64, 1<<12)
	for i := range keys {
		keys[i] = int64(rng.Intn(ix.Len()))
	}
	dt, err = pb.best("join.lookup", func() error {
		for i := 0; i < lookups; i++ {
			if f, ok := ix.Lookup(keys[i&(len(keys)-1)]); ok {
				layerSink += f[0]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("join.lookup_ns", "ns", perOp(dt, lookups))

	if pb.rv, err = join.NewResolver(pl.Parent, pl.Ref, pb.idxs); err != nil {
		return err
	}
	pb.nodes = len(pb.idxs)
	pb.rows = pb.n
	if pb.rows > 20000 {
		pb.rows = 20000
	}
	pb.pos = make([]int, pb.rows*pb.nodes)
	d := pb.r.e.data
	dt, err = pb.best("join.resolve", func() error {
		for i := 0; i < pb.rows; i++ {
			if err := pb.rv.Resolve(d.factFKs(i), nil, pb.pos[i*pb.nodes:(i+1)*pb.nodes]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("join.resolve_ns_per_row", "ns", perOp(dt, pb.rows))
	return nil
}

func (pb *probes) factorLayer() error {
	row := func(x []float64, y float64) error { layerSink += y; return nil }
	ps, err := factor.NewPartScan(pb.spec, join.DefaultBlockPages)
	if err != nil {
		return err
	}
	pb.p = ps.P
	dt, err := pb.best("factor.partscan", func() error { return ps.Scan(row) })
	if err != nil {
		return err
	}
	pb.add("factor.partscan_ns_per_row", "ns", perOp(dt, pb.n))

	msrc, err := factor.NewMaterializedSource(pb.db, pb.spec, "probe_M")
	if err != nil {
		return err
	}
	dt, err = pb.best("factor.source_scan.m", func() error { return msrc.Scan(row) })
	if cerr := msrc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	pb.add("factor.source_scan_ns_per_row.m", "ns", perOp(dt, pb.n))

	ssrc, err := factor.NewStreamedSource(pb.spec, join.DefaultBlockPages)
	if err != nil {
		return err
	}
	dt, err = pb.best("factor.source_scan.s", func() error { return ssrc.Scan(row) })
	if err != nil {
		return err
	}
	pb.add("factor.source_scan_ns_per_row.s", "ns", perOp(dt, pb.n))
	return nil
}

// baseModels returns the models every set-up trains on the live base.
func (pb *probes) baseModels() (*gmm.Model, *nn.Network) {
	pb.r.mu.Lock()
	defer pb.r.mu.Unlock()
	return pb.r.gmms[1], pb.r.nns[1]
}

func (pb *probes) gmmLayer() error {
	m, _ := pb.baseModels()
	scorer, err := m.NewScorer(pb.p)
	if err != nil {
		return err
	}
	// One K-component cache set per distinct dimension tuple per node,
	// filled the way the factorized trainer and the serving engine do.
	byNode := make([][][]core.QuadCache, pb.nodes)
	var ops core.Ops
	var fills int
	dt, err := pb.timeIt("gmm.fill_dim_caches", func() error {
		for j, ix := range pb.idxs {
			byNode[j] = make([][]core.QuadCache, ix.Len())
			for t := range byNode[j] {
				_, feats := ix.At(t)
				byNode[j][t] = make([]core.QuadCache, scorer.K())
				scorer.FillDimCaches(byNode[j][t], 1+j, feats, &ops)
				fills++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("gmm.fill_dim_cache_ns", "ns", perOp(dt, fills))

	d := pb.r.e.data
	sc := scorer.NewScratch()
	gamma := make([]float64, scorer.K())
	caches := make([][]core.QuadCache, pb.nodes)
	each := func(fn func(xs []float64)) func() error {
		return func() error {
			for i := 0; i < pb.rows; i++ {
				for j := range caches {
					caches[j] = byNode[j][pb.pos[i*pb.nodes+j]]
				}
				fn(d.factX(i))
			}
			return nil
		}
	}
	fused, unfused := scorer.EStepBenchHooks()
	if dt, err = pb.best("gmm.estep_fused", each(func(xs []float64) { layerSink += fused(xs, caches, sc, gamma) })); err != nil {
		return err
	}
	pb.add("gmm.estep_fused_ns_per_row", "ns", perOp(dt, pb.rows))
	if dt, err = pb.best("gmm.estep_unfused", each(func(xs []float64) { layerSink += unfused(xs, caches, sc, gamma) })); err != nil {
		return err
	}
	pb.add("gmm.estep_unfused_ns_per_row", "ns", perOp(dt, pb.rows))
	if dt, err = pb.best("gmm.score", each(func(xs []float64) {
		lp, _ := scorer.Score(xs, caches, sc)
		layerSink += lp
	})); err != nil {
		return err
	}
	pb.add("gmm.score_ns_per_row", "ns", perOp(dt, pb.rows))

	f, tr := pb.r.facts, pb.r.train
	pb.add("gmm.ops_mul.f", "count", float64(f["gmm_f"].mul))
	pb.add("gmm.ops_mul.m", "count", float64(f["gmm_m"].mul))
	pb.add("gmm.factorization_ratio", "ratio", ratio(float64(f["gmm_m"].mul), float64(f["gmm_f"].mul)))
	pb.add("gmm.speedup_f_over_m", "ratio", ratio(tr["gmm_m"].median(), tr["gmm_f"].median()))
	pb.add("gmm.speedup_f_over_s", "ratio", ratio(tr["gmm_s"].median(), tr["gmm_f"].median()))
	return nil
}

func (pb *probes) nnLayer() error {
	_, net := pb.baseModels()
	byNode := make([][][]float64, pb.nodes)
	var fills int
	dt, err := pb.timeIt("nn.partial_preact", func() error {
		for j, ix := range pb.idxs {
			byNode[j] = make([][]float64, ix.Len())
			for t := range byNode[j] {
				_, feats := ix.At(t)
				byNode[j][t] = make([]float64, net.HiddenWidth())
				net.PartialPreAct(byNode[j][t], pb.p.Offs[1+j], feats)
				fills++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("nn.partial_preact_ns", "ns", perOp(dt, fills))

	d := pb.r.e.data
	fs := net.NewForwardScratch()
	parts := make([][]float64, pb.nodes)
	dt, err = pb.best("nn.forward_factorized", func() error {
		for i := 0; i < pb.rows; i++ {
			for j := range parts {
				parts[j] = byNode[j][pb.pos[i*pb.nodes+j]]
			}
			layerSink += net.ForwardFactorized(fs, d.factX(i), parts)
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("nn.forward_factorized_ns_per_row", "ns", perOp(dt, pb.rows))

	dense := make([]float64, pb.rows*d.width)
	for i := 0; i < pb.rows; i++ {
		d.materialise(dense[i*d.width:(i+1)*d.width], d.factX(i), d.factFKs(i))
	}
	dt, err = pb.best("nn.predict", func() error {
		for i := 0; i < pb.rows; i++ {
			layerSink += net.Predict(dense[i*d.width : (i+1)*d.width])
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("nn.predict_ns_per_row", "ns", perOp(dt, pb.rows))

	f, tr := pb.r.facts, pb.r.train
	pb.add("nn.ops_mul.f", "count", float64(f["nn_f"].mul))
	pb.add("nn.ops_mul.m", "count", float64(f["nn_m"].mul))
	pb.add("nn.factorization_ratio", "ratio", ratio(float64(f["nn_m"].mul), float64(f["nn_f"].mul)))
	pb.add("nn.speedup_f_over_m", "ratio", ratio(tr["nn_m"].median(), tr["nn_f"].median()))
	return nil
}

func (pb *probes) linalgLayer() error {
	w := pb.r.e.data.width
	rng := rand.New(rand.NewSource(pb.r.seed))
	x, y := make([]float64, w), make([]float64, w)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	const calls = 1 << 20
	dt, err := pb.best("linalg.dotn", func() error {
		for i := 0; i < calls; i++ {
			layerSink += linalg.DotN(x, y, w)
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("linalg.dotn_ns", "ns", perOp(dt, calls))
	a := linalg.NewDense(w, w)
	dt, err = pb.best("linalg.syrk", func() error {
		for i := 0; i < calls/16; i++ {
			linalg.SyrkAccum(a, 0.5, x)
		}
		return nil
	})
	if err != nil {
		return err
	}
	layerSink += a.At(0, 0)
	pb.add("linalg.syrk_ns", "ns", perOp(dt, calls/16))
	return nil
}

// requestRows draws the predict batches the engine probes score, from
// the workload's own key distribution.
func (pb *probes) requestRows(batches, rows int) [][]serve.Row {
	if pb.gen == nil {
		pb.gen = &predictClient{r: pb.r, rng: rand.New(rand.NewSource(pb.r.seed*31 + 5))}
		for _, ti := range pb.r.sh.direct {
			pb.gen.keys = append(pb.gen.keys, newKeyGen(pb.gen.rng, pb.r.sh.dims[ti].rows, pb.r.sh.zipfS))
		}
	}
	pc := pb.gen
	out := make([][]serve.Row, batches)
	for i := range out {
		out[i] = pc.rows(rows)
	}
	return out
}

// engineTime scores batches on a fresh engine with the given worker count
// and returns the median per-batch time, after one warm-up sweep.
func (pb *probes) engineTime(name string, reg *serve.Registry, workers int, model string, batches [][]serve.Row) (time.Duration, error) {
	eng, err := serve.NewEngine(reg, pb.spec.Plan(), serve.EngineConfig{NumWorkers: workers, CacheEntries: pb.r.sh.cacheEntries})
	if err != nil {
		return 0, err
	}
	out := make([]serve.Prediction, len(batches[0]))
	var lat sample
	for sweep := 0; sweep < 2; sweep++ {
		for _, rows := range batches {
			dt, err := pb.timeIt(name, func() error {
				_, err := eng.PredictInto(model, rows, out)
				return err
			})
			if err != nil {
				return 0, err
			}
			if out[0].Err != "" {
				return 0, fmt.Errorf("%s: %s", name, out[0].Err)
			}
			if sweep == 1 {
				lat = append(lat, float64(dt.Nanoseconds()))
			}
		}
	}
	return time.Duration(lat.median()), nil
}

// registry returns a model registry over the training directory holding
// the two base models, for the engines the probes build.
func (pb *probes) registry() (*serve.Registry, error) {
	if pb.reg != nil {
		return pb.reg, nil
	}
	reg, err := serve.NewRegistry(pb.db)
	if err != nil {
		return nil, err
	}
	m, net := pb.baseModels()
	if err := reg.SaveGMM(gmmName, m); err != nil {
		return nil, err
	}
	if err := reg.SaveNN(nnName, net); err != nil {
		return nil, err
	}
	pb.reg = reg
	return reg, nil
}

func (pb *probes) parallelLayer() error {
	cfgG, cfgN := pb.r.sh.gmm, pb.r.sh.nn
	cfgG.NumWorkers, cfgN.NumWorkers = 2, 2
	dt, err := pb.timeIt("parallel.train_gmm_f_w2", func() error {
		_, err := gmm.TrainF(pb.db, pb.spec, cfgG)
		return err
	})
	if err != nil {
		return err
	}
	pb.add("parallel.train_gmm_f_w2_speedup", "ratio", ratio(pb.r.train["gmm_f"].median(), dt.Seconds()))
	dt, err = pb.timeIt("parallel.train_nn_f_w2", func() error {
		_, err := nn.TrainF(pb.db, pb.spec, cfgN)
		return err
	})
	if err != nil {
		return err
	}
	pb.add("parallel.train_nn_f_w2_speedup", "ratio", ratio(pb.r.train["nn_f"].median(), dt.Seconds()))

	reg, err := pb.registry()
	if err != nil {
		return err
	}
	batches := pb.requestRows(40, bulkPredictRows)
	w1, err := pb.engineTime("parallel.predict_w1", reg, 1, gmmName, batches)
	if err != nil {
		return err
	}
	w2, err := pb.engineTime("parallel.predict_w2", reg, 2, gmmName, batches)
	if err != nil {
		return err
	}
	pb.add("parallel.predict_w2_speedup", "ratio", ratio(float64(w1), float64(w2)))
	return nil
}

func (pb *probes) planLayer() error {
	gspec := plan.ModelSpec{Family: plan.FamilyGMM, K: pb.r.sh.gmm.K, Iters: pb.r.sh.gmm.MaxIter}
	nspec := plan.ModelSpec{Family: plan.FamilyNN, Hidden: pb.r.sh.nn.Hidden, Epochs: pb.r.sh.nn.Epochs}
	var gp, np *plan.Plan
	const calls = 200
	dt, err := pb.timeIt("plan.choose", func() error {
		for i := 0; i < calls; i++ {
			ss, err := plan.Collect(pb.spec)
			if err != nil {
				return err
			}
			if gp, err = plan.Choose(ss, gspec, plan.Options{}); err != nil {
				return err
			}
			if np, err = plan.Choose(ss, nspec, plan.Options{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("plan.choose_us", "us", perOp(dt, 2*calls)/1e3)

	// The planner's Strategy values mirror the facade's Algorithm values.
	fastest := func(model string) factorml.Algorithm {
		best := strategies[0]
		for _, s := range strategies[1:] {
			if pb.r.train[model+"_"+s.key].median() < pb.r.train[model+"_"+best.key].median() {
				best = s
			}
		}
		return best.algo
	}
	match := func(chosen plan.Strategy, model string) float64 {
		if factorml.Algorithm(chosen) == fastest(model) {
			return 1
		}
		return 0
	}
	pb.add("plan.auto_matches_fastest.gmm", "bool", match(gp.Chosen, "gmm"))
	pb.add("plan.auto_matches_fastest.nn", "bool", match(np.Chosen, "nn"))
	pb.add("plan.est_over_measured_ops.f", "ratio",
		ratio(float64(gp.Estimate(plan.Factorized).Ops.Mul), float64(pb.r.facts["gmm_f"].mul)))
	pb.add("plan.est_over_measured_ops.m", "ratio",
		ratio(float64(gp.Estimate(plan.Materialized).Ops.Mul), float64(pb.r.facts["gmm_m"].mul)))
	return nil
}

func (pb *probes) serveLayer() error {
	r := pb.r
	reg, err := pb.registry()
	if err != nil {
		return err
	}
	bulk := pb.requestRows(40, bulkPredictRows)
	small := pb.requestRows(400, r.sh.smallRows)
	var bulkNs, smallNs float64
	for _, model := range []string{gmmName, nnName} {
		b, err := pb.engineTime("serve.engine.bulk."+model, reg, 1, model, bulk)
		if err != nil {
			return err
		}
		pb.add("serve.engine_ns_per_row."+model, "ns", float64(b)/bulkPredictRows)
		s, err := pb.engineTime("serve.engine.small."+model, reg, 1, model, small)
		if err != nil {
			return err
		}
		bulkNs += float64(b) / 2
		smallNs += float64(s) / 2
	}
	// HTTP overhead: what the same rows cost over the wire beyond what the
	// engine alone takes for them (both models averaged, as in the traffic).
	pb.add("serve.http_overhead_ms.json", "ms", r.predSmall.median()-smallNs/1e6)
	pb.add("serve.http_overhead_ms.binary", "ms", r.predBulk.median()-bulkNs/1e6)
	pb.add("serve.dim_cache_hit_ratio", "ratio", r.engine.DimCacheHitRate)
	pb.add("serve.dim_invalidations", "count", float64(r.engine.DimInvalidations))
	pb.add("serve.allocs_per_request", "count", r.predMallocs)
	pb.add("serve.predict_p99_ms", "ms", percentile(r.predSmall.sorted(), 99))
	pb.add("serve.rejected", "count", float64(r.rejected.Load()))
	return nil
}

func (pb *probes) streamLayer() error {
	r := pb.r
	// A stream without a log over the training tables, both base models
	// attached: Ingest is then validate + append + absorb, no fsync.
	st, err := stream.New(pb.db, pb.spec, stream.Options{Policy: stream.Policy{NumWorkers: 1}})
	if err != nil {
		return err
	}
	m, net := pb.baseModels()
	if err := st.AttachGMM(gmmName, m); err != nil {
		return err
	}
	if err := st.AttachNN(nnName, net); err != nil {
		return err
	}
	d := r.e.data
	const batchRows, batches = 500, 10
	next := int64(pb.n)
	dt, err := pb.timeIt("stream.apply", func() error {
		for b := 0; b < batches; b++ {
			var batch stream.Batch
			for i := 0; i < batchRows; i++ {
				src := int(next) % pb.n
				batch.Facts = append(batch.Facts, stream.FactRow{SID: next, FKs: d.factFKs(src), Features: d.factX(src), Target: d.y[src]})
				next++
			}
			if _, err := st.Ingest(batch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pb.add("stream.apply_ns_per_row", "ns", perOp(dt, batchRows*batches))

	orZero := func(s sample) float64 {
		if len(s) == 0 {
			return 0
		}
		return s.median()
	}
	pb.add("stream.refresh_incremental_ms", "ms", orZero(r.refreshInc))
	pb.add("stream.refresh_rebaseline_ms", "ms", orZero(r.refreshBase))
	pb.add("stream.rebaselines", "count", float64(r.counters.Rebaselines))
	pb.add("stream.checkpoint_s", "s", r.checkpointS)
	pb.add("stream.replay_rows_per_s", "rows/s", ratio(float64(r.imgTailRows), r.recover.median()))
	pb.add("stream.icd_ll_gap", "ratio", r.driftLL)
	pb.add("stream.icd_loss_gap", "ratio", r.driftLoss)
	pb.add("stream.recover_nn_param_diff", "abs", r.nnRecoverDiff)
	return nil
}

func (pb *probes) walLayer() error {
	r := pb.r
	dir := filepath.Join(r.e.root, "probe-wal")
	l, err := wal.Open(dir, wal.Options{FsyncEvery: 1})
	if err != nil {
		return err
	}
	// A payload the size of the workload's small durable batch.
	perRow := ratio(float64(r.walAtEnd.AppendedBytes), float64(r.ackedRows))
	payload := make([]byte, int(perRow*float64(r.sh.smallBatchRows))+1)
	var lat sample
	for i := 0; i < 300; i++ {
		dt, err := pb.timeIt("wal.append_sync", func() error {
			if _, err := l.Append(payload); err != nil {
				return err
			}
			return l.Sync()
		})
		if err != nil {
			l.Close()
			return err
		}
		lat = append(lat, float64(dt.Nanoseconds())/1e3)
	}
	pb.add("wal.append_sync_us", "us", lat.median())
	pb.add("wal.fsyncs_per_append", "ratio", ratio(float64(r.walAtEnd.Fsyncs), float64(r.walAtEnd.Appends)))
	pb.add("wal.bytes_per_row", "bytes", perRow)

	// Snapshot commit: stage one file the size of the live fact heap.
	blob := make([]byte, 1<<20)
	dt, err := pb.timeIt("wal.snapshot_commit", func() error {
		snap, err := l.BeginSnapshot()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(snap.Dir, "heap"), blob, 0o644); err != nil {
			snap.Abort()
			return err
		}
		return snap.Commit(l.LastLSN())
	})
	if err != nil {
		l.Close()
		return err
	}
	pb.add("wal.snapshot_commit_ms", "ms", ms(dt))
	if err := l.Close(); err != nil {
		return err
	}

	// Tail read rate over a log written without fsync.
	l, err = wal.Open(filepath.Join(r.e.root, "probe-wal-tail"), wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer l.Close()
	rec := make([]byte, 4<<10)
	const records = 2048
	for i := 0; i < records; i++ {
		if _, err := l.Append(rec); err != nil {
			return err
		}
	}
	dt, err = pb.best("wal.tail", func() error {
		rd, err := l.Tail(1)
		if err != nil {
			return err
		}
		for {
			_, p, err := rd.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			layerSink += float64(len(p))
		}
	})
	if err != nil {
		return err
	}
	pb.add("wal.tail_mb_per_s", "MB/s", float64(records*len(rec))/1e6/dt.Seconds())
	return nil
}

// telemetryLayer measures what switching the server's telemetry on, and
// what the harness's own spans, add to a small prediction. Two servers
// boot from two crash images, one plain and one with tracing, metrics and
// monitoring; the same requests go to both in alternating blocks, so a
// slow stretch of the machine hits every variant alike.
func (pb *probes) telemetryLayer() error {
	r := pb.r
	if len(r.images) < 2 {
		return fmt.Errorf("no crash images to boot the telemetry probe from")
	}
	plain, err := bootLive(r.sh, r.images[0])
	if err != nil {
		return err
	}
	defer plain.close()
	loud, err := bootLive(r.sh, r.images[1],
		factorml.WithTracing(factorml.TraceConfig{}), factorml.WithMetrics(), factorml.WithMonitoring(factorml.MonitorConfig{}))
	if err != nil {
		return err
	}
	defer loud.close()
	variants := []struct {
		c   *client
		lat sample
	}{
		{c: newClient(plain.ts.URL, nil, "", 0)},
		{c: newClient(loud.ts.URL, nil, "", 0)},
		{c: newClient(plain.ts.URL, r.rec, "layers", 0)},
	}
	const blocks, perBlock = 16, 100
	for b := 0; b < blocks; b++ {
		batches := pb.requestRows(perBlock, r.sh.smallRows)
		for k := range variants {
			v := (b + k) % len(variants) // rotate who goes first
			for i, rows := range batches {
				model := gmmName
				if i%2 == 1 {
					model = nnName
				}
				_, dt, err := variants[v].c.predict(model, rows, false)
				if err != nil {
					return fmt.Errorf("telemetry probe: %w", err)
				}
				if b > 0 { // the first block warms connections and caches
					variants[v].lat = append(variants[v].lat, ms(dt))
				}
			}
		}
	}
	for v := range variants {
		variants[v].c.close()
	}
	off := variants[0].lat.median()
	pb.add("telemetry.predict_overhead_pct", "%", 100*ratio(variants[1].lat.median()-off, off))
	pb.add("bench.trace_overhead_pct", "%", 100*ratio(variants[2].lat.median()-off, off))
	return nil
}

// printBudgets prints, per hot path, what the layer probes account for of
// one end-to-end number of this traced run, and the residual they leave.
// Each probe is the fastest of three runs and the end-to-end number is a
// median, so a residual also holds whatever the machine added to the median.
func (r *run) printBudgets(w io.Writer, layer []metric) {
	v := make(map[string]float64, len(layer))
	for _, m := range layer {
		v[m.name] = m.value
	}
	type line struct {
		what string
		ms   float64
	}
	show := func(title string, total float64, lines []line) {
		fmt.Fprintf(w, "budget: %s = %.3f ms\n", title, total)
		rest := total
		for _, l := range lines {
			fmt.Fprintf(w, "  %-52s %10.3f ms %5.1f%%\n", l.what, l.ms, 100*ratio(l.ms, total))
			rest -= l.ms
		}
		fmt.Fprintf(w, "  %-52s %10.3f ms %5.1f%%\n\n", "residual (not explained by the probes)", rest, 100*ratio(rest, total))
	}
	n := float64(r.sh.logRows)
	// F-GMM reads the join once to initialise and three times per EM
	// iteration (its page reads are 1+3·iters fact-table scans); one of the
	// three is the E-step.
	passes := float64(1 + 3*r.sh.gmm.MaxIter)
	iters := float64(r.sh.gmm.MaxIter)
	scan := v["storage.scan_ns_per_tuple"]
	show("train_gmm_f_s, "+fmt.Sprintf("%g passes over %g rows", passes, n), 1e3*r.train["gmm_f"].median(), []line{
		{"storage scan (scan_ns_per_tuple x rows x passes)", scan * n * passes / 1e6},
		{"join probe (stream - scan)", (v["join.stream_ns_per_row"] - scan) * n * passes / 1e6},
		{"factor pass (partscan - stream)", (v["factor.partscan_ns_per_row"] - v["join.stream_ns_per_row"]) * n * passes / 1e6},
		{"kernel (estep_fused x rows x iterations)", v["gmm.estep_fused_ns_per_row"] * n * iters / 1e6},
	})
	nodes := float64(len(r.sh.dims))
	miss := 1 - v["serve.dim_cache_hit_ratio"]
	kernel := (v["gmm.score_ns_per_row"] + v["nn.forward_factorized_ns_per_row"]) / 2
	fill := (v["gmm.fill_dim_cache_ns"] + v["nn.partial_preact_ns"]) / 2
	show(fmt.Sprintf("bulk predict request p50, %d rows, binary wire", bulkPredictRows), r.predBulk.median(), []line{
		{"HTTP overhead (request p50 - engine alone)", v["serve.http_overhead_ms.binary"]},
		{"index probe (resolve_ns_per_row x rows)", v["join.resolve_ns_per_row"] * bulkPredictRows / 1e6},
		{"partial cache (fill x rows x nodes x miss ratio)", fill * bulkPredictRows * nodes * miss / 1e6},
		{"kernel (score / forward_factorized x rows)", kernel * bulkPredictRows / 1e6},
	})
	rows := float64(r.sh.smallBatchRows)
	show(fmt.Sprintf("ingest_ack_p50_ms, %g-row durable batch", rows), r.ackSmall.median(), []line{
		{"WAL fsync (append_sync_us)", v["wal.append_sync_us"] / 1e3},
		{"append (storage append_ns_per_tuple x rows)", v["storage.append_ns_per_tuple"] * rows / 1e6},
		{"absorb (stream apply_ns_per_row x rows - append)", (v["stream.apply_ns_per_row"] - v["storage.append_ns_per_tuple"]) * rows / 1e6},
	})
}
