// Package trace is a dependency-free, context-propagated tracing layer
// for the serving and training stack: one Trace per request (or training
// pass), nested spans with attributes, W3C traceparent in/out, and a
// bounded in-memory flight recorder (recent-N ring plus slowest-N list
// with tail sampling that always keeps errors and over-threshold
// requests) exported as JSON at /debug/traces and /debug/traces/slow.
//
// The cost discipline mirrors the rest of the hot path: when a context
// carries no sampled trace, Start returns the context unchanged and a
// zero Span whose methods are no-ops — zero allocations, pinned by a
// testing.AllocsPerRun test. When a trace is active, span starts and
// attribute writes take one short mutex on the request's own Trace (no
// global locks); the recorder's lock is taken once per request at
// Finish and at scrape time.
package trace

import (
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer. The zero value selects the defaults below.
type Config struct {
	// SampleFraction is the fraction of requests that record spans
	// (0 < f <= 1). 0 selects 1.0 (trace everything); to turn tracing
	// off entirely, run without a Tracer. A request arriving with a
	// sampled traceparent is always traced, regardless of the fraction.
	SampleFraction float64

	// SlowThreshold is the duration at or above which a finished trace
	// is always offered to the slowest-N list. 0 selects 100ms.
	SlowThreshold time.Duration
}

// The flight recorder's bounds: the most-recent ring, the slowest list,
// and the spans recorded per trace — further starts are counted as
// dropped instead of growing without bound (a large predict batch can
// probe thousands of cache entries).
const (
	recentTraces = 128
	slowTraces   = 64
	maxSpans     = 512
)

func (c Config) withDefaults() Config {
	if c.SampleFraction <= 0 || c.SampleFraction > 1 {
		c.SampleFraction = 1
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 100 * time.Millisecond
	}
	return c
}

// Tracer decides sampling, issues request traces and owns the flight
// recorder. Safe for concurrent use.
type Tracer struct {
	cfg Config
	rec recorder

	requests  atomic.Uint64 // StartRequest calls
	sampled   atomic.Uint64 // traces that recorded spans
	errCount  atomic.Uint64 // finished traces marked errored
	slowCount atomic.Uint64 // finished traces at/over SlowThreshold
}

// New builds a Tracer; zero Config fields select defaults.
func New(cfg Config) *Tracer {
	return &Tracer{cfg: cfg.withDefaults()}
}

// StartRequest begins a request-scoped trace. parentHeader is the
// incoming W3C traceparent ("" for none): a valid header's trace ID is
// adopted as this request's ID, and its sampled flag forces sampling.
// The returned context always carries the request ID (for logging);
// it carries a live *Trace only when the request was sampled, in which
// case tr is non-nil and the caller must eventually call tr.Finish.
// The request ID doubles as the X-Request-Id response header.
func (t *Tracer) StartRequest(ctx Context, name, parentHeader string) (Context, *Trace, string) {
	tid, parentSpan, forced, ok := ParseTraceparent(parentHeader)
	if !ok {
		tid = newTraceID()
	}
	t.requests.Add(1)
	if !forced && !t.sampleHit() {
		return withRef(ctx, &ctxRef{reqID: tid}), nil, tid
	}
	t.sampled.Add(1)
	tr := &Trace{
		tracer:     t,
		id:         tid,
		parentSpan: parentSpan,
		rootSpanID: newSpanID(),
		start:      time.Now(),
		spans:      make([]spanData, 1, 16),
	}
	tr.spans[0] = spanData{name: name, parent: -1, durNs: -1}
	return withRef(ctx, &ctxRef{t: tr, span: 0, reqID: tid}), tr, tid
}

func (t *Tracer) sampleHit() bool {
	if t.cfg.SampleFraction >= 1 {
		return true
	}
	return rand.Float64() < t.cfg.SampleFraction
}

// Trace is one request's (or pass's) span tree under assembly. Span
// starts, attribute writes and Finish are safe from concurrent
// goroutines (the engine fans a request across the worker pool).
type Trace struct {
	tracer     *Tracer
	id         string // 32 hex chars
	parentSpan string // incoming parent span ID ("" when this is a root)
	rootSpanID string // 16 hex chars, emitted in Traceparent
	start      time.Time

	mu      sync.Mutex
	spans   []spanData
	dropped int
	err     bool
	status  int
	done    bool
}

type spanData struct {
	name    string
	parent  int32
	startNs int64 // offset from trace start
	durNs   int64 // -1 while open
	attrs   []attr
	errMsg  string
}

type attr struct{ k, v string }

// ID returns the 32-hex-character trace ID (also the request ID).
// Nil-safe: a nil Trace returns "".
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Traceparent renders the outgoing W3C traceparent header for this
// trace (always sampled — an assembled trace is by definition kept).
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return FormatTraceparent(t.id, t.rootSpanID, true)
}

// SetName renames the root span (the HTTP layer resolves the stable
// endpoint label only after routing).
func (t *Trace) SetName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.spans[0].name = name
	}
	t.mu.Unlock()
}

// StartSpan opens a child of the span at index parent (0 is the root).
// Nil-safe: on a nil Trace, or past the maxSpans cap, the returned zero
// Span is inert.
func (t *Trace) StartSpan(parent int32, name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	if t.done || len(t.spans) >= maxSpans {
		if !t.done {
			t.dropped++
		}
		t.mu.Unlock()
		return Span{}
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, spanData{
		name:    name,
		parent:  parent,
		startNs: time.Since(t.start).Nanoseconds(),
		durNs:   -1,
	})
	t.mu.Unlock()
	return Span{t: t, idx: idx}
}

// Finish closes the trace with the final HTTP status (0 for non-HTTP
// traces), ends the root span and any span left open, and hands the
// assembled record to the flight recorder. Statuses >= 500 mark the
// trace errored (as does any span's Fail). Finish is idempotent.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.status = status
	if status >= 500 {
		t.err = true
	}
	end := time.Since(t.start).Nanoseconds()
	for i := range t.spans {
		if t.spans[i].durNs < 0 {
			t.spans[i].durNs = end - t.spans[i].startNs
		}
	}
	rec := t.snapshotLocked(end)
	t.mu.Unlock()

	tt := t.tracer
	if rec.Error {
		tt.errCount.Add(1)
	}
	slow := end >= tt.cfg.SlowThreshold.Nanoseconds()
	if slow {
		tt.slowCount.Add(1)
	}
	tt.rec.keep(rec, rec.Error || slow)
}

// Span is a lightweight handle to one span of a Trace. The zero Span is
// valid and inert: every method is a no-op, so call sites need no nil
// checks and the untraced hot path allocates nothing.
type Span struct {
	t   *Trace
	idx int32
}

// Active reports whether the span records anything (false for the zero
// Span), letting hot paths skip attribute formatting entirely.
func (s Span) Active() bool { return s.t != nil }

// Child opens a sub-span of s. On an inert span it returns an inert span.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.StartSpan(s.idx, name)
}

// End closes the span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.done {
		sd := &s.t.spans[s.idx]
		if sd.durNs < 0 {
			sd.durNs = time.Since(s.t.start).Nanoseconds() - sd.startNs
		}
	}
	s.t.mu.Unlock()
}

// SetAttr attaches a string attribute.
func (s Span) SetAttr(k, v string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.done {
		sd := &s.t.spans[s.idx]
		sd.attrs = append(sd.attrs, attr{k, v})
	}
	s.t.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s Span) SetInt(k string, v int64) {
	if s.t == nil {
		return
	}
	s.SetAttr(k, strconv.FormatInt(v, 10))
}

// SetBool attaches a boolean attribute.
func (s Span) SetBool(k string, v bool) {
	if s.t == nil {
		return
	}
	if v {
		s.SetAttr(k, "true")
	} else {
		s.SetAttr(k, "false")
	}
}

// Fail records an error message on the span and marks the whole trace
// errored, which guarantees retention in the flight recorder.
func (s Span) Fail(msg string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.done {
		s.t.spans[s.idx].errMsg = msg
		s.t.err = true
	}
	s.t.mu.Unlock()
}
