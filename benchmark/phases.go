package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"factorml"
	"factorml/internal/core"
	"factorml/internal/nn"
	"factorml/internal/serve"
)

var strategies = []struct {
	key  string
	algo factorml.Algorithm
}{{"f", factorml.Factorized}, {"m", factorml.Materialized}, {"s", factorml.Streaming}}

// trainFacts is what one training run leaves for the layer metrics.
type trainFacts struct {
	mul   int64 // multiplies charged (exact)
	reads int64 // logical page reads (exact)
	phys  int64
}

// run is one benchmark run of one workload: the environment, the raw
// samples every phase collects, and the ledger of operations.
type run struct {
	sh     *shape
	seed   int64
	rounds int
	e      *env
	rec    *recorder
	led    *ledger

	// trainBy is when the train phase should be over (main.go); a third or
	// later round that would end past it is not started.
	trainBy time.Time
	gauge   machineGauge

	setup sample // seconds, one per set-up
	train map[string]sample
	facts map[string]trainFacts

	predSmall   sample  // ms, all clients
	predBulk    sample  // ms per bulk request, all clients
	predBulkRPS float64 // bulk rows/s, clients summed
	ackSmall    sample  // ms
	bulkLat     sample  // ms per bulk ingest batch
	refreshInc  sample  // ms, refreshes that did not rebaseline
	refreshBase sample  // ms, refreshes that did
	recover     sample  // seconds
	heapPeakMB  float64
	phaseSecs   []string // "phase 1.23s", for the report
	driftLL     float64
	driftLoss   float64
	requestHash string

	// Versioned models, so a prediction can be checked against the
	// parameters that produced it even when refreshes run beside it.
	mu   sync.Mutex
	gmms map[int]*factorml.GMMModel
	nns  map[int]*factorml.NNNetwork

	// Crash image state.
	images      []string
	imgGMM      []byte
	imgNN       []byte
	ackedFacts  int64 // fact rows the live database has acknowledged
	ackedRows   int64 // fact rows plus dimension updates acknowledged by the stream phase
	imgFacts    int64 // ackedFacts when the images were copied
	tailRows    int   // rows acked since the last committed checkpoint
	imgTailRows int
	// nnRecoverDiff is the largest parameter difference between a
	// recovered network and the serialised one; 0 when byte-identical.
	nnRecoverDiff float64
	walAtEnd      factorml.WALStats
	counters      factorml.StreamCounters
	engine        serve.Stats
	checkpointS   float64
	predMallocs   float64      // heap allocations per predict request, client included
	rejected      atomic.Int64 // 429 answers, any endpoint
}

func newRun(sh *shape, seed int64, rounds int, rec *recorder) *run {
	return &run{sh: sh, seed: seed, rounds: rounds, rec: rec, led: &ledger{},
		train: make(map[string]sample), facts: make(map[string]trainFacts),
		gmms: make(map[int]*factorml.GMMModel), nns: make(map[int]*factorml.NNNetwork)}
}

// boundary ends a phase: a forced collection, so the next phase is not
// billed this one's garbage, a live-heap reading and a reading of the
// machine gauge.
func (r *run) boundary() {
	runtime.GC()
	runtime.GC() // the second cycle drops what sync.Pool kept through the first
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if mb := float64(m.HeapAlloc) / (1 << 20); mb > r.heapPeakMB {
		r.heapPeakMB = mb
	}
	r.gauge.read()
}

// timed runs one phase and closes it with a boundary.
func (r *run) timed(name string, phase func()) {
	t0 := time.Now()
	phase()
	r.phaseSecs = append(r.phaseSecs, fmt.Sprintf("%s %.1fs", name, time.Since(t0).Seconds()))
	r.boundary()
}

// check records a self-check outcome in the ledger.
func (r *run) check(phase string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	r.led.op(phase, err)
}

// trainPhase times the six trainers over the full log, interleaved
// F,M,S per round so that a slow stretch of the machine is shared by all
// strategies, and checks that the strategies agree. A forced collection
// comes before every repetition, so none is billed another's garbage.
func (r *run) trainPhase() {
	ph := r.rec.start("phase.train", "train", 0, 0)
	defer r.rec.end(ph)
	ds := r.e.trainDS
	// One untimed pass fills the buffer pool and the page cache.
	r.led.op("train", ds.Stream(func(int64, []float64, float64) error { return nil }))
	timeRep := func(key, span string, round int, train func() error) bool {
		runtime.GC()
		sp := r.rec.start(span, "train", ph, round)
		t0 := time.Now()
		err := train()
		dt := time.Since(t0)
		r.rec.end(sp)
		r.led.op("train", err)
		if err != nil {
			return false
		}
		r.train[key] = append(r.train[key], dt.Seconds())
		return true
	}
	start := time.Now()
	for round := 0; round < r.rounds; round++ {
		// When the machine is slow two rounds stand in for three, so that
		// the driver's runs still fit its time limit.
		if round >= 2 && time.Now().Add(time.Since(start)/time.Duration(round)).After(r.trainBy) {
			break
		}
		var g [3]*factorml.GMMResult
		for i, s := range strategies {
			key := "gmm_" + s.key
			ok := timeRep(key, "train.gmm."+s.key, round, func() (err error) {
				g[i], err = factorml.TrainGMM(ds, s.algo, r.sh.gmm)
				return err
			})
			if ok {
				r.facts[key] = trainFacts{g[i].Stats.Ops.Mul, g[i].Stats.IO.LogicalReads, g[i].Stats.IO.PhysicalReads}
			}
		}
		if g[0] != nil && g[1] != nil && g[2] != nil {
			fm, ms := g[0].Model.MaxParamDiff(g[1].Model), g[1].Model.MaxParamDiff(g[2].Model)
			r.check("train.check", fm <= 1e-9 && ms <= 1e-6, "GMM strategies disagree: F-M %.3g, M-S %.3g", fm, ms)
		}
		var n [3]*factorml.NNResult
		for i, s := range strategies {
			key := "nn_" + s.key
			ok := timeRep(key, "train.nn."+s.key, round, func() (err error) {
				n[i], err = factorml.TrainNN(ds, s.algo, r.sh.nn)
				return err
			})
			if ok {
				r.facts[key] = trainFacts{n[i].Stats.Ops.Mul, n[i].Stats.IO.LogicalReads, n[i].Stats.IO.PhysicalReads}
			}
		}
		if n[0] != nil && n[1] != nil && n[2] != nil {
			fm, ms := n[0].Net.MaxParamDiff(n[1].Net), n[1].Net.MaxParamDiff(n[2].Net)
			r.check("train.check", fm <= 1e-9 && ms <= 1e-6, "NN strategies disagree: F-M %.3g, M-S %.3g", fm, ms)
		}
	}
}

// noteModels remembers the registry's current model versions.
func (r *run) noteModels(db *factorml.DB) error {
	infos, err := db.Models()
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, mi := range infos {
		switch mi.Name {
		case gmmName:
			if r.gmms[mi.Version], err = db.LoadGMM(gmmName); err != nil {
				return err
			}
		case nnName:
			if r.nns[mi.Version], err = db.LoadNN(nnName); err != nil {
				return err
			}
		}
	}
	return nil
}

// denseCheckRows caps how many rows of a sampled request are kept and
// recomputed with Model.LogProb, which inverts every covariance on each call.
const denseCheckRows = 16

// sampled is one predict request kept for the dense self-check.
type sampled struct {
	model string
	rows  []serve.Row
	got   *predictions
}

// predictClient is the request generator and bookkeeping of one predict
// client.
type predictClient struct {
	r      *run
	c      *client
	rng    *rand.Rand
	keys   []*keyGen
	small  sample // ms
	bulk   sample // ms
	kept   []sampled
	nSmall int
	nBulk  int
	digest io.Writer
}

func (r *run) newPredictClient(idx int, phase string, parent int, digest io.Writer) *predictClient {
	pc := &predictClient{r: r, rng: rand.New(rand.NewSource(r.seed*7919 + int64(idx) + 1)), digest: digest}
	pc.c = newClient(r.e.live.ts.URL, r.rec, phase, parent)
	pc.c.rejected = &r.rejected
	for _, ti := range r.sh.direct {
		pc.keys = append(pc.keys, newKeyGen(pc.rng, r.sh.dims[ti].rows, r.sh.zipfS))
	}
	return pc
}

// rows draws n request rows: the fact features of a random log row, the
// foreign keys from the workload's key distribution.
func (pc *predictClient) rows(n int) []serve.Row {
	d := pc.r.e.data
	out := make([]serve.Row, n)
	for i := range out {
		fks := make([]int64, len(pc.keys))
		for j, g := range pc.keys {
			fks[j] = g.next()
		}
		out[i] = serve.Row{Fact: d.factX(pc.rng.Intn(d.sh.logRows)), FKs: fks}
		if pc.digest != nil {
			hashFloats(pc.digest, out[i].Fact)
			hashInts(pc.digest, fks)
		}
	}
	return out
}

// send issues one request, small (JSON) or bulk (binary), alternating the
// two models per kind. Every hundredth request is repeated on the other
// wire and must answer bit-identically; it is also kept for the dense
// check. timed is false during warm-up.
func (pc *predictClient) send(bulk, timed bool) {
	n, seq := pc.r.sh.smallRows, pc.nSmall
	if bulk {
		n, seq = bulkPredictRows, pc.nBulk
	}
	model := gmmName
	if seq%2 == 1 {
		model = nnName
	}
	rows := pc.rows(n)
	got, lat, err := pc.c.predict(model, rows, bulk)
	pc.r.led.op("predict", err)
	if bulk {
		pc.nBulk++
	} else {
		pc.nSmall++
	}
	if err != nil {
		return
	}
	if timed {
		if bulk {
			pc.bulk = append(pc.bulk, ms(lat))
		} else {
			pc.small = append(pc.small, ms(lat))
		}
	}
	if (pc.nSmall+pc.nBulk)%100 != 0 {
		return
	}
	other, _, err := pc.c.predict(model, rows, !bulk)
	if err != nil {
		pc.r.led.op("predict.check", err)
		return
	}
	if other.version == got.version { // else a refresh landed between the two; nothing to compare
		same := true
		for i := range got.val {
			if math.Float64bits(got.val[i]) != math.Float64bits(other.val[i]) || got.cluster[i] != other.cluster[i] {
				same = false
			}
		}
		pc.r.check("predict.check", same, "JSON and binary wires disagree for %s", model)
	}
	// Keep only what the dense check reads: how many requests a closed loop
	// sends depends on the machine, and the harness's memory must not.
	if len(rows) > denseCheckRows {
		rows = rows[:denseCheckRows]
		got.val = append([]float64(nil), got.val[:denseCheckRows]...)
		got.cluster = append([]int(nil), got.cluster[:denseCheckRows]...)
	}
	pc.kept = append(pc.kept, sampled{model, rows, got})
}

// finish folds the client's samples into the run and checks its kept
// requests against the dense model on the materialised rows. A client's
// bulk throughput is rows per request over its median bulk latency: the
// median, because a sum is set by a few multi-millisecond stalls.
func (pc *predictClient) finish() {
	r := pc.r
	pc.c.close()
	r.predSmall = append(r.predSmall, pc.small...)
	r.predBulk = append(r.predBulk, pc.bulk...)
	if len(pc.bulk) > 0 {
		r.predBulkRPS += bulkPredictRows / (pc.bulk.median() / 1e3)
	}
	x := make([]float64, r.e.data.width)
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for _, s := range pc.kept {
		r.mu.Lock()
		g, n := r.gmms[s.got.version], r.nns[s.got.version]
		r.mu.Unlock()
		ok := true
		for i, row := range s.rows {
			r.e.data.materialise(x, row.Fact, row.FKs)
			switch {
			case s.model == gmmName && g != nil:
				ok = ok && close(s.got.val[i], g.LogProb(x)) && s.got.cluster[i] == g.Predict(x)
			case s.model == nnName && n != nil:
				ok = ok && close(s.got.val[i], n.Predict(x))
			default:
				ok = false
			}
		}
		r.check("predict.check", ok, "%s v%d predictions differ from the dense model", s.model, s.got.version)
	}
}

// predictPhase runs the two closed-loop predict clients against the
// quiet server: a tenth of the traffic first, untimed, so connections and
// the partial caches are warm, then the measured requests.
func (r *run) predictPhase() {
	ph := r.rec.start("phase.predict", "predict", 0, 0)
	defer r.rec.end(ph)
	digest := newDigest()
	clients := make([]*predictClient, 2)
	for i := range clients {
		var dg io.Writer
		if i == 0 {
			dg = digest
		}
		clients[i] = r.newPredictClient(i, "predict", ph, dg)
	}
	total := r.sh.smallReqs + r.sh.bulkReqs
	// both sends requests [from, to) of the fixed sequence on both clients.
	both := func(from, to int, timed bool) {
		var wg sync.WaitGroup
		for _, pc := range clients {
			wg.Add(1)
			go func(pc *predictClient) {
				defer wg.Done()
				for k := from; k < to; k++ {
					// Spread the bulk requests evenly among the small ones.
					bulk := (k+1)*r.sh.bulkReqs/total != k*r.sh.bulkReqs/total
					pc.send(bulk, timed)
				}
			}(pc)
		}
		wg.Wait()
	}
	both(total-total/10, total, false)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	both(0, total, true)
	runtime.ReadMemStats(&after)
	for _, pc := range clients {
		pc.finish()
	}
	r.predMallocs = float64(after.Mallocs-before.Mallocs) / float64(2*total)
	r.requestHash = digest.hex()
	r.engine = engineStats(r.e.live)
}

// replay turns the log into change batches.
type replay struct {
	r    *run
	rng  *rand.Rand
	next int     // next log row to send
	owed float64 // fractional dimension updates carried over
	upd  []int   // tables that reference sub-dimensions
}

// batch draws the next n-row change batch: dimFrac of the rows (carried
// over between batches) are dimension updates, the rest the next rows of
// the log.
func (rp *replay) batch(n int) *factorml.StreamBatch {
	d := rp.r.e.data
	b := &factorml.StreamBatch{}
	rp.owed += float64(n) * rp.r.sh.dimFrac
	for ; rp.owed >= 1 && len(rp.upd) > 0; rp.owed-- {
		ti := rp.upd[rp.rng.Intn(len(rp.upd))]
		spec := d.sh.dims[ti]
		u := factorml.DimUpdate{Table: spec.name, RID: int64(rp.rng.Intn(spec.rows)),
			FKs: make([]int64, len(spec.subs)), Features: make([]float64, spec.width)}
		d.drawDimRow(rp.rng, ti, u.Features, u.FKs)
		b.Dims = append(b.Dims, u)
		n--
	}
	for ; n > 0; n-- {
		i := rp.next
		rp.next++
		b.Facts = append(b.Facts, factorml.FactRow{SID: int64(i), FKs: d.factFKs(i), Features: d.factX(i), Target: d.y[i]})
	}
	return b
}

// applied mirrors an acked batch's dimension updates into the in-memory
// tables.
func (rp *replay) applied(b *factorml.StreamBatch) {
	d := rp.r.e.data
	for _, u := range b.Dims {
		for ti, t := range d.tables {
			if t.spec.name == u.Table {
				copy(d.tables[ti].row(u.RID), u.Features)
				copy(d.tables[ti].subKeys(u.RID), u.FKs)
			}
		}
	}
}

// streamPhase replays the log through durable ingest: per slice the bulk
// batches, the small batches, then an explicit refresh. After a quarter of
// the slices it copies the live directory once per recovery: the crash
// images the recover phase boots from. With sh.concurrent one predict client runs beside the
// writer until the replay ends.
func (r *run) streamPhase() {
	ph := r.rec.start("phase.stream", "stream", 0, 0)
	defer r.rec.end(ph)
	st := r.e.live.srv.Stream()
	w := newClient(r.e.live.ts.URL, r.rec, "stream", ph)
	w.rejected = &r.rejected
	defer w.close()
	rp := &replay{r: r, rng: rand.New(rand.NewSource(r.seed*104729 + 17)), next: r.sh.baseRows}
	r.ackedFacts = int64(r.sh.baseRows)
	for ti, spec := range r.sh.dims {
		if len(spec.subs) > 0 {
			rp.upd = append(rp.upd, ti)
		}
	}

	var reader sync.WaitGroup
	stop := make(chan struct{})
	if r.sh.concurrent {
		digest := newDigest()
		pc := r.newPredictClient(0, "stream", ph, digest)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		reader.Add(1)
		go func() {
			defer reader.Done()
			// The first requests warm the connection and caches; a replay
			// too short for them (the tests') still gets a few timed ones.
			const warm = 20
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i >= warm+4 {
						return
					}
				default:
				}
				pc.send(i%2 == 1, i >= warm)
			}
		}()
		defer func() {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			r.predMallocs = float64(after.Mallocs-before.Mallocs) / float64(pc.nSmall+pc.nBulk)
			pc.finish()
			r.requestHash = digest.hex()
		}()
	}

	ckpts := st.Counters().Checkpoints
	send := func(name string, n int) (time.Duration, bool) {
		b := rp.batch(n)
		lat, err := w.ingest(name, b)
		r.led.op("ingest", err)
		if err != nil {
			return 0, false
		}
		rp.applied(b)
		r.ackedFacts += int64(len(b.Facts))
		r.ackedRows += int64(n)
		if c := st.Counters().Checkpoints; c != ckpts {
			ckpts, r.tailRows = c, 0
		} else {
			r.tailRows += n
		}
		return lat, true
	}
	crashAt := (r.sh.slices + 3) / 4
	for s := 0; s < r.sh.slices; s++ {
		for i := 0; i < r.sh.bulkPerSlice; i++ {
			if lat, ok := send("http.ingest.bulk", r.sh.bulkBatchRows); ok {
				r.bulkLat = append(r.bulkLat, ms(lat))
			}
		}
		for i := 0; i < r.sh.smallPerSlice; i++ {
			if lat, ok := send("http.ingest.small", r.sh.smallBatchRows); ok {
				r.ackSmall = append(r.ackSmall, ms(lat))
			}
		}
		if s == r.sh.slices-1 {
			// The predict client stops before the last refresh. What the
			// engine holds at the phase boundary, and with it the heap
			// reading, otherwise depends on whether a request happened to
			// follow that refresh's republish (22 or 25 MiB).
			close(stop)
			reader.Wait()
		}
		res, lat, err := w.refresh()
		if err == nil {
			err = r.noteModels(r.e.live.db)
		}
		r.led.op("refresh", err)
		if err == nil {
			rebased := false
			for _, m := range res.Models {
				rebased = rebased || m.Rebaselined
			}
			if rebased {
				r.refreshBase = append(r.refreshBase, ms(lat))
			} else {
				r.refreshInc = append(r.refreshInc, ms(lat))
			}
		}
		if s+1 == crashAt {
			r.led.op("crash_image", r.takeImages(st))
		}
	}

	r.walAtEnd = r.e.live.db.WALStats()
	t0 := time.Now()
	sp := r.rec.start("stream.checkpoint", "stream", ph, 0)
	err := st.Checkpoint()
	r.rec.end(sp)
	r.checkpointS = time.Since(t0).Seconds()
	r.led.op("checkpoint", err)
	r.counters = st.Counters()
	if r.sh.concurrent {
		r.engine = engineStats(r.e.live)
	} else {
		// Keep the predict phase's cache counters, add the stream's
		// invalidations.
		r.engine.DimInvalidations = engineStats(r.e.live).DimInvalidations
	}
}

// takeImages serialises the current models, then copies the live
// directory — database files, snapshot and log tail, no clean-shutdown
// marker — once per recovery.
func (r *run) takeImages(st *factorml.Stream) error {
	var err error
	if r.imgGMM, r.imgNN, err = modelBytes(st); err != nil {
		return err
	}
	r.imgFacts, r.imgTailRows = r.ackedFacts, r.tailRows
	for i := 0; i < recoveries; i++ {
		dst := filepath.Join(r.e.root, fmt.Sprintf("image%d", i))
		if err := copyTree(r.e.liveDir, dst); err != nil {
			return err
		}
		r.images = append(r.images, dst)
	}
	return nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// recoverPhase boots each crash image up to its first successful
// prediction, then checks that the recovered models are the serialised
// ones byte for byte and that no acknowledged row is missing.
func (r *run) recoverPhase() {
	ph := r.rec.start("phase.recover", "recover", 0, 0)
	defer r.rec.end(ph)
	probe := []serve.Row{{Fact: r.e.data.factX(0), FKs: r.e.data.factFKs(0)}}
	for _, dir := range r.images {
		runtime.GC()
		sp := r.rec.start("recover.boot", "recover", ph, 0)
		t0 := time.Now()
		live, err := bootLive(r.sh, dir)
		if err == nil {
			c := newClient(live.ts.URL, nil, "", 0)
			_, _, err = c.predict(gmmName, probe, false)
			c.close()
		}
		dt := time.Since(t0)
		r.rec.end(sp)
		r.led.op("recover", err)
		if err != nil {
			if live != nil {
				live.close()
			}
			continue
		}
		r.recover = append(r.recover, dt.Seconds())
		r.led.op("recover.check", r.checkRecovered(live.srv.Stream()))
		fact, err := live.db.FactTable(factTable)
		if err == nil && fact.NumTuples() != r.imgFacts {
			err = fmt.Errorf("recovered fact table has %d rows, %d were acknowledged", fact.NumTuples(), r.imgFacts)
		}
		r.led.op("recover.check", err)
		r.led.op("recover", live.close())
	}
}

// checkRecovered compares the recovered models with the ones serialised
// just before the crash image was copied. The mixture must match byte for
// byte. So must the network, with one documented exception: recovery
// re-plans the network's refresh strategy from the snapshot's table
// statistics while the unkilled run kept its attach-time plan, so when
// the planner's choice flips between the two (it does on icd_replay) the
// replayed refreshes train factorized where the original trained
// streamed. The strategies agree to 1e-9, not to the bit; the check then
// accepts that bound and nnRecoverDiff reports the difference.
func (r *run) checkRecovered(st *factorml.Stream) error {
	g, n, err := modelBytes(st)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, r.imgGMM) {
		return errors.New("recovered GMM differs from the one serialised before the crash image")
	}
	if bytes.Equal(n, r.imgNN) {
		return nil
	}
	got, err := nn.LoadNetwork(bytes.NewReader(n))
	if err != nil {
		return err
	}
	want, err := nn.LoadNetwork(bytes.NewReader(r.imgNN))
	if err != nil {
		return err
	}
	r.nnRecoverDiff = got.MaxParamDiff(want)
	if r.nnRecoverDiff > 1e-9 {
		return fmt.Errorf("recovered NN differs from the one serialised before the crash image by %.3g", r.nnRecoverDiff)
	}
	return nil
}

// driftCheck compares the incrementally maintained models with a retrain
// from scratch over everything the live database now holds, the ICD
// tolerance test: the gap is how much worse the incremental model scores,
// as a share of the retrained model's score.
func (r *run) driftCheck() {
	ph := r.rec.start("phase.drift", "drift", 0, 0)
	defer r.rec.end(ph)
	err := func() error {
		db, st := r.e.live.db, r.e.live.srv.Stream()
		fact, err := db.FactTable(factTable)
		if err != nil {
			return err
		}
		ds, err := db.Dataset(fact)
		if err != nil {
			return err
		}
		fullG, err := factorml.TrainGMM(ds, factorml.Factorized, r.sh.gmm)
		if err != nil {
			return err
		}
		fullN, err := factorml.TrainNN(ds, factorml.Factorized, r.sh.nn)
		if err != nil {
			return err
		}
		incG, err := st.GMM(gmmName)
		if err != nil {
			return err
		}
		incN, err := st.NN(nnName)
		if err != nil {
			return err
		}
		// The one-part scorer is the dense log-density with its per-model
		// inverses computed once instead of once per row.
		whole := core.NewPartition([]int{r.e.data.width})
		incS, err := incG.NewScorer(whole)
		if err != nil {
			return err
		}
		fullS, err := fullG.Model.NewScorer(whole)
		if err != nil {
			return err
		}
		incSc, fullSc := incS.NewScratch(), fullS.NewScratch()
		var llInc, llFull, seInc, seFull float64
		err = ds.Stream(func(_ int64, x []float64, y float64) error {
			lpInc, _ := incS.Score(x, nil, incSc)
			lpFull, _ := fullS.Score(x, nil, fullSc)
			llInc += lpInc
			llFull += lpFull
			a, b := incN.Predict(x)-y, fullN.Net.Predict(x)-y
			seInc += a * a
			seFull += b * b
			return nil
		})
		r.driftLL = (llFull - llInc) / math.Abs(llFull)
		r.driftLoss = (seInc - seFull) / seFull
		return err
	}()
	r.led.op("drift", err)
	if err == nil && r.sh.driftTol > 0 {
		r.check("drift.check", r.driftLL <= r.sh.driftTol && r.driftLoss <= r.sh.driftTol,
			"incremental models drifted past %.2g: log-likelihood gap %.3g, loss gap %.3g", r.sh.driftTol, r.driftLL, r.driftLoss)
	}
}
