package trace

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"factorml/internal/api"
	"factorml/internal/metrics"
)

// TraceRecord is the immutable JSON form of a finished trace, as served
// by /debug/traces and /debug/traces/slow.
type TraceRecord struct {
	TraceID    string       `json:"trace_id"`
	RequestID  string       `json:"request_id"` // same value as X-Request-Id
	ParentSpan string       `json:"parent_span,omitempty"`
	Name       string       `json:"name"`
	Start      time.Time    `json:"start"`
	DurationMs float64      `json:"duration_ms"`
	Status     int          `json:"status,omitempty"`
	Error      bool         `json:"error"`
	Dropped    int          `json:"dropped_spans,omitempty"`
	Spans      []SpanRecord `json:"spans"`
}

// SpanRecord is one span of a TraceRecord. Parent is the index of the
// parent span in Spans (-1 for the root), so the tree reconstructs
// without span IDs.
type SpanRecord struct {
	ID      int32             `json:"id"`
	Parent  int32             `json:"parent"`
	Name    string            `json:"name"`
	StartUs float64           `json:"start_us"`
	DurUs   float64           `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// snapshotLocked renders the trace into its immutable record; callers
// hold t.mu.
func (t *Trace) snapshotLocked(endNs int64) *TraceRecord {
	rec := &TraceRecord{
		TraceID:    t.id,
		RequestID:  t.id,
		ParentSpan: t.parentSpan,
		Name:       t.spans[0].name,
		Start:      t.start,
		DurationMs: float64(endNs) / 1e6,
		Status:     t.status,
		Error:      t.err,
		Dropped:    t.dropped,
		Spans:      make([]SpanRecord, len(t.spans)),
	}
	for i, sd := range t.spans {
		sr := SpanRecord{
			ID:      int32(i),
			Parent:  sd.parent,
			Name:    sd.name,
			StartUs: float64(sd.startNs) / 1e3,
			DurUs:   float64(sd.durNs) / 1e3,
			Error:   sd.errMsg,
		}
		if len(sd.attrs) > 0 {
			sr.Attrs = make(map[string]string, len(sd.attrs))
			for _, a := range sd.attrs {
				sr.Attrs[a.k] = a.v
			}
		}
		rec.Spans[i] = sr
	}
	return rec
}

// recorder is the bounded flight recorder: a ring of the most recent
// traces plus a slowest-N list with tail sampling — errored and
// over-threshold traces are always offered a slot and outrank faster,
// healthy ones.
type recorder struct {
	mu     sync.Mutex
	recent [recentTraces]*TraceRecord // ring, nil until filled
	next   int
	slow   []*TraceRecord
	total  uint64
}

// rank orders slow-slot candidates: errors above successes, then by
// duration.
func rank(rec *TraceRecord) (int, float64) {
	e := 0
	if rec.Error {
		e = 1
	}
	return e, rec.DurationMs
}

func rankLess(a, b *TraceRecord) bool {
	ea, da := rank(a)
	eb, db := rank(b)
	if ea != eb {
		return ea < eb
	}
	return da < db
}

func (r *recorder) keep(rec *TraceRecord, forceSlow bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	r.recent[r.next] = rec
	r.next = (r.next + 1) % len(r.recent)

	if len(r.slow) < slowTraces {
		if forceSlow || len(r.slow) == 0 || !rankLess(rec, r.slow[minIdx(r.slow)]) {
			r.slow = append(r.slow, rec)
		}
		return
	}
	mi := minIdx(r.slow)
	if forceSlow || !rankLess(rec, r.slow[mi]) {
		r.slow[mi] = rec
	}
}

func minIdx(s []*TraceRecord) int {
	mi := 0
	for i := 1; i < len(s); i++ {
		if rankLess(s[i], s[mi]) {
			mi = i
		}
	}
	return mi
}

// Recent returns the retained most-recent traces, newest first.
func (t *Tracer) Recent() []*TraceRecord {
	t.rec.mu.Lock()
	defer t.rec.mu.Unlock()
	n := len(t.rec.recent)
	out := make([]*TraceRecord, 0, n)
	for i := 1; i <= n; i++ {
		if rec := t.rec.recent[(t.rec.next-i+n)%n]; rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// Slow returns the retained slowest traces, worst first (errors above
// successes, then by duration).
func (t *Tracer) Slow() []*TraceRecord {
	t.rec.mu.Lock()
	out := append([]*TraceRecord{}, t.rec.slow...)
	t.rec.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return rankLess(out[j], out[i]) })
	return out
}

// Stats is the tracer's own bookkeeping: the "trace" section of /statsz
// and /metrics, and the header of the debug payloads.
type Stats struct {
	Requests        uint64  `json:"requests"`
	Sampled         uint64  `json:"sampled"`
	Errors          uint64  `json:"errors"`
	Slow            uint64  `json:"slow"`
	Recorded        uint64  `json:"recorded"`
	SampleFraction  float64 `json:"sample_fraction"`
	SlowThresholdMs float64 `json:"slow_threshold_ms"`
}

// Samples emits the tracer's counters as factorml_trace_* samples.
func (s Stats) Samples(emit metrics.Emit) {
	emit.Counter("factorml_trace_requests_total", "Requests the tracer issued a request ID to.", float64(s.Requests))
	emit.Counter("factorml_trace_sampled_total", "Requests sampled into a span-recording trace.", float64(s.Sampled))
	emit.Counter("factorml_trace_errors_total", "Sampled traces that finished marked errored.", float64(s.Errors))
	emit.Counter("factorml_trace_slow_total", "Sampled traces that finished at or over the slow threshold.", float64(s.Slow))
	emit.Counter("factorml_trace_recorded_total", "Traces kept by the flight recorder.", float64(s.Recorded))
	emit.Gauge("factorml_trace_sample_fraction", "Configured fraction of requests sampled.", s.SampleFraction)
	emit.Gauge("factorml_trace_slow_threshold_seconds", "Duration at or over which a trace counts as slow.", s.SlowThresholdMs/1e3)
}

// Stats returns a snapshot of the tracer's counters.
func (t *Tracer) Stats() Stats {
	t.rec.mu.Lock()
	recorded := t.rec.total
	t.rec.mu.Unlock()
	return Stats{
		Requests:        t.requests.Load(),
		Sampled:         t.sampled.Load(),
		Errors:          t.errCount.Load(),
		Slow:            t.slowCount.Load(),
		Recorded:        recorded,
		SampleFraction:  t.cfg.SampleFraction,
		SlowThresholdMs: float64(t.cfg.SlowThreshold) / float64(time.Millisecond),
	}
}

// debugPayload is the JSON body of the /debug/traces endpoints.
type debugPayload struct {
	Stats  Stats          `json:"stats"`
	Traces []*TraceRecord `json:"traces"`
}

// DebugHandler serves the flight recorder as JSON: paths ending in
// /slow render the slowest-N list (worst first); anything else renders
// the recent ring (newest first). Mount it at both /debug/traces and
// /debug/traces/slow.
func (t *Tracer) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var traces []*TraceRecord
		if strings.HasSuffix(r.URL.Path, "/slow") {
			traces = t.Slow()
		} else {
			traces = t.Recent()
		}
		if traces == nil {
			traces = []*TraceRecord{}
		}
		api.WriteJSON(w, http.StatusOK, debugPayload{Stats: t.Stats(), Traces: traces})
	})
}
