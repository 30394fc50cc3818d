package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"factorml/internal/metrics"
)

// Dynamic cross-request batching: concurrent small predict requests
// against one model are coalesced into one engine batch, so the fan-out
// and per-batch bookkeeping amortize across requests instead of being
// paid per HTTP call. Correctness rests on a property the engine already
// guarantees — every prediction is a pure per-row function of (model
// version, row), independent of its neighbors in the batch — so a
// coalesced request's rows produce bit-identical results to a solo
// request's; TestBatchingEquivalence pins it.
//
// Semantics: the first request to arrive opens a pending batch and arms
// the window timer (Limits.BatchWindow); requests landing inside the
// window append their rows. The batch flushes when the window expires or
// its rows reach Limits.MaxBatchRows, whichever is first; each waiter
// receives exactly its own rows' slice of the result. Admission control
// is unchanged — limiter slots are taken before a request enters the
// batcher and held until its response, so MaxInFlightPerModel still
// bounds admitted requests, not batches. A batch outlives any single
// request's context, so a flush scores under context.Background() — a
// client disconnect never cancels a batch other requests are riding on.

// batcherSet hands out one batcher per model name, mirroring
// modelLimiters' lock-free steady state.
type batcherSet struct {
	eng     *Engine
	window  time.Duration
	maxRows int

	m  sync.Map // model name -> *batcher
	mu sync.Mutex

	// sizeHist observes flushed batch sizes (rows per engine call) per
	// model.
	sizeHist *metrics.HistogramVec

	batches    atomic.Uint64
	requests   atomic.Uint64
	coalesced  atomic.Uint64 // requests that shared their batch with another
	rows       atomic.Uint64
	waitNs     atomic.Uint64 // batch open → flush, summed
	lastWaitNs atomic.Uint64
}

func newBatcherSet(eng *Engine, window time.Duration, maxRows int) *batcherSet {
	return &batcherSet{eng: eng, window: window, maxRows: maxRows}
}

func (bs *batcherSet) get(model string) *batcher {
	if b, ok := bs.m.Load(model); ok {
		return b.(*batcher)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b, ok := bs.m.Load(model); ok {
		return b.(*batcher)
	}
	b := &batcher{set: bs, name: model}
	bs.m.Store(model, b)
	return b
}

// submit coalesces one request's rows into the model's pending batch and
// blocks until the batch containing them is scored.
func (bs *batcherSet) submit(model string, rows []Row) ([]Prediction, ModelInfo, error) {
	return bs.get(model).submit(rows)
}

// BatchingStats is the "batching" section of /statsz and /metrics.
type BatchingStats struct {
	Window            string  `json:"window"`
	MaxBatchRows      int     `json:"max_batch_rows,omitempty"`
	Batches           uint64  `json:"batches"`
	Requests          uint64  `json:"requests"`
	CoalescedRequests uint64  `json:"coalesced_requests"`
	Rows              uint64  `json:"rows"`
	AvgBatchRows      float64 `json:"avg_batch_rows"`
	AvgWaitMs         float64 `json:"avg_wait_ms"`
	LastWaitMs        float64 `json:"last_wait_ms"`
}

func (bs *batcherSet) stats() BatchingStats {
	s := BatchingStats{
		Window:            bs.window.String(),
		MaxBatchRows:      bs.maxRows,
		Batches:           bs.batches.Load(),
		Requests:          bs.requests.Load(),
		CoalescedRequests: bs.coalesced.Load(),
		Rows:              bs.rows.Load(),
		LastWaitMs:        float64(bs.lastWaitNs.Load()) / 1e6,
	}
	if s.Batches > 0 {
		s.AvgBatchRows = float64(s.Rows) / float64(s.Batches)
		s.AvgWaitMs = float64(bs.waitNs.Load()) / 1e6 / float64(s.Batches)
	}
	return s
}

// Samples emits the batcher counters (the batch-size histogram is a live
// instrument of the server's registry).
func (s BatchingStats) Samples(emit metrics.Emit) {
	emit.Counter("factorml_batch_batches_total", "Coalesced engine batches flushed.", float64(s.Batches))
	emit.Counter("factorml_batch_requests_total", "Predict requests routed through the batcher.", float64(s.Requests))
	emit.Counter("factorml_batch_coalesced_requests_total",
		"Predict requests that shared an engine batch with at least one other request.", float64(s.CoalescedRequests))
	emit.Counter("factorml_batch_rows_total", "Rows scored through coalesced batches.", float64(s.Rows))
	emit.Gauge("factorml_batch_wait_seconds", "Open-to-flush wait of the most recently flushed batch.", s.LastWaitMs/1e3)
}

// pendingBatch is one forming batch: rows from every rider, one done
// latch, and the shared results the riders slice their answers out of.
type pendingBatch struct {
	rows    []Row
	nSubs   int
	opened  time.Time
	timer   *time.Timer
	flushed bool
	done    chan struct{}

	preds []Prediction
	info  ModelInfo
	err   error
}

// batcher coalesces requests for one model.
type batcher struct {
	set  *batcherSet
	name string

	mu      sync.Mutex
	pending *pendingBatch
}

func (b *batcher) submit(rows []Row) ([]Prediction, ModelInfo, error) {
	b.set.requests.Add(1)
	b.mu.Lock()
	pb := b.pending
	if pb == nil {
		pb = &pendingBatch{opened: time.Now(), done: make(chan struct{})}
		pb.timer = time.AfterFunc(b.set.window, func() { b.flush(pb) })
		b.pending = pb
	}
	off := len(pb.rows)
	pb.rows = append(pb.rows, rows...)
	pb.nSubs++
	full := b.set.maxRows > 0 && len(pb.rows) >= b.set.maxRows
	b.mu.Unlock()
	if full {
		b.flush(pb)
	}
	<-pb.done
	if pb.err != nil {
		return nil, ModelInfo{}, pb.err
	}
	return pb.preds[off : off+len(rows)], pb.info, nil
}

// flush scores the batch once, whether the window timer or a size
// trigger (or both, racing) got here first.
func (b *batcher) flush(pb *pendingBatch) {
	b.mu.Lock()
	if pb.flushed {
		b.mu.Unlock()
		return
	}
	pb.flushed = true
	if b.pending == pb {
		b.pending = nil
	}
	b.mu.Unlock()
	pb.timer.Stop()

	wait := time.Since(pb.opened)
	set := b.set
	set.batches.Add(1)
	set.rows.Add(uint64(len(pb.rows)))
	set.waitNs.Add(uint64(wait.Nanoseconds()))
	set.lastWaitNs.Store(uint64(wait.Nanoseconds()))
	if pb.nSubs > 1 {
		set.coalesced.Add(uint64(pb.nSubs))
	}
	set.sizeHist.With(b.name).Observe(float64(len(pb.rows)))
	pb.preds, pb.info, pb.err = set.eng.PredictCtx(context.Background(), b.name, pb.rows)
	close(pb.done)
}
