package serve

import (
	"sync"
	"time"
)

// Limits configures admission control on the HTTP surface. Every limit
// rejects *before* any work is admitted — the body is not read, no
// engine or stream state is touched — so overload degrades into fast
// structured 429 responses instead of unbounded queueing, and an
// admitted batch always runs to completion (the bit-identical-results
// discipline: a limit can refuse work, never truncate it mid-batch).
type Limits struct {
	// MaxInFlightPerModel bounds concurrently admitted predict requests
	// per model name. A request over the limit is rejected with 429
	// predict_overloaded and a Retry-After hint before its body is read.
	// 0 = unlimited.
	MaxInFlightPerModel int

	// MaxQueuedIngest bounds admitted-but-unfinished ingest batches
	// (the bounded ingest queue; enforced by internal/stream). A batch
	// over the limit is rejected with 429 ingest_overloaded before its
	// body is read, with no partial effects. 0 = unlimited.
	MaxQueuedIngest int

	// BatchWindow, when positive, enables dynamic cross-request batching:
	// the first predict request against a model opens a batch and waits up
	// to this long for concurrent requests to coalesce into one engine
	// call (see batcher.go). Per-row results are bit-identical to
	// unbatched serving — batching trades bounded added latency for
	// amortized per-batch overhead. 0 disables batching.
	BatchWindow time.Duration

	// MaxBatchRows caps a coalescing batch: a batch reaching this many
	// rows flushes immediately instead of waiting out the window, and a
	// single request at or over the cap bypasses the batcher entirely.
	// 0 = no cap (batches flush on the window alone). Only meaningful
	// with BatchWindow > 0.
	MaxBatchRows int
}

// Limiter is a fixed-capacity admission token pool. TryAcquire never
// blocks: admission control answers immediately rather than queueing.
// A nil *Limiter admits everything.
type Limiter struct{ sem chan struct{} }

// NewLimiter returns a limiter with n slots, or nil (unlimited) when
// n <= 0.
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		return nil
	}
	return &Limiter{sem: make(chan struct{}, n)}
}

// TryAcquire takes a slot if one is free, reporting whether it did.
func (l *Limiter) TryAcquire() bool {
	if l == nil {
		return true
	}
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by TryAcquire.
func (l *Limiter) Release() {
	if l != nil {
		<-l.sem
	}
}

// InFlight returns the number of currently held slots.
func (l *Limiter) InFlight() int {
	if l == nil {
		return 0
	}
	return len(l.sem)
}

// modelLimiters hands out one Limiter per model name. Lookup after
// first use is a lock-free sync.Map load, keeping admission off the
// request path's lock budget.
type modelLimiters struct {
	capacity int
	m        sync.Map // model name -> *Limiter
	mu       sync.Mutex
}

func newModelLimiters(capacity int) *modelLimiters {
	if capacity <= 0 {
		return nil
	}
	return &modelLimiters{capacity: capacity}
}

func (ml *modelLimiters) get(model string) *Limiter {
	if ml == nil {
		return nil
	}
	if l, ok := ml.m.Load(model); ok {
		return l.(*Limiter)
	}
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if l, ok := ml.m.Load(model); ok {
		return l.(*Limiter)
	}
	l := NewLimiter(ml.capacity)
	ml.m.Store(model, l)
	return l
}
