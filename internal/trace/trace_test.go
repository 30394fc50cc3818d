package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestUntracedStartIsZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := Start(ctx, "engine.predict")
		sp.SetAttr("k", "v")
		sp.SetInt("n", 42)
		child := sp.Child("cache.lookup")
		child.SetBool("hit", true)
		child.End()
		sp.End()
		if c2 != ctx {
			t.Fatal("untraced Start must return ctx unchanged")
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced span path allocated %.1f/op, want 0", allocs)
	}
}

func TestNilTraceAndZeroSpanAreInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Traceparent() != "" {
		t.Fatal("nil trace must render empty IDs")
	}
	tr.SetName("x")
	tr.Finish(200)
	sp := tr.StartSpan(0, "x")
	if sp.Active() {
		t.Fatal("span from nil trace must be inert")
	}
	sp.End()
	sp.Fail("boom")
	if sp.Child("y").Active() {
		t.Fatal("child of inert span must be inert")
	}
}

func TestRequestTraceAssembly(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour})
	ctx, trace, reqID := tr.StartRequest(context.Background(), "request", "")
	if trace == nil {
		t.Fatal("default sampling must trace every request")
	}
	if reqID != trace.ID() || len(reqID) != 32 {
		t.Fatalf("request ID %q must be the 32-hex trace ID %q", reqID, trace.ID())
	}
	if RequestID(ctx) != reqID {
		t.Fatalf("RequestID(ctx) = %q, want %q", RequestID(ctx), reqID)
	}

	ctx2, eng := Start(ctx, "engine.predict")
	eng.SetAttr("model", "m1")
	eng.SetInt("rows", 128)
	_, chunk := Start(ctx2, "engine.chunk")
	lk := chunk.Child("cache.lookup")
	lk.SetBool("hit", false)
	lk.End()
	chunk.End()
	eng.End()
	trace.SetName("predict")
	trace.Finish(200)
	trace.Finish(200) // idempotent

	recs := tr.Recent()
	if len(recs) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Name != "predict" || rec.Status != 200 || rec.Error {
		t.Fatalf("bad record: %+v", rec)
	}
	names := map[string]SpanRecord{}
	for _, s := range rec.Spans {
		names[s.Name] = s
	}
	for _, want := range []string{"predict", "engine.predict", "engine.chunk", "cache.lookup"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("trace misses span %q; has %+v", want, rec.Spans)
		}
	}
	if names["engine.predict"].Attrs["rows"] != "128" || names["engine.predict"].Attrs["model"] != "m1" {
		t.Fatalf("bad engine attrs: %v", names["engine.predict"].Attrs)
	}
	if names["cache.lookup"].Attrs["hit"] != "false" {
		t.Fatalf("bad lookup attrs: %v", names["cache.lookup"].Attrs)
	}
	// Tree shape: chunk's parent is engine.predict, lookup's parent is chunk.
	if names["engine.chunk"].Parent != names["engine.predict"].ID {
		t.Fatal("chunk span must parent to the engine span")
	}
	if names["cache.lookup"].Parent != names["engine.chunk"].ID {
		t.Fatal("lookup span must parent to the chunk span")
	}
	if rec.Spans[0].Parent != -1 {
		t.Fatal("root span must have parent -1")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, pid, sampled, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if !ok || !sampled || tid != "0af7651916cd43dd8448eb211c80319c" || pid != "b7ad6b7169203331" {
		t.Fatalf("parse: %q %q %v %v", tid, pid, sampled, ok)
	}
	if got := FormatTraceparent(tid, pid, true); got != "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" {
		t.Fatalf("format: %q", got)
	}
	for _, bad := range []string{
		"",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",    // short
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // bad version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span
		"00-0af7651916cd43dd8448eb211c80319C-b7ad6b7169203331-01", // uppercase
		"00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // bad sep
	} {
		if _, _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestIncomingTraceparentAdoptedAndForcesSampling(t *testing.T) {
	tr := New(Config{SampleFraction: 0.000001, SlowThreshold: time.Hour})
	hdr := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	_, trace, reqID := tr.StartRequest(context.Background(), "r", hdr)
	if trace == nil {
		t.Fatal("sampled traceparent must force tracing")
	}
	if reqID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace ID not adopted: %q", reqID)
	}
	out := trace.Traceparent()
	if !strings.HasPrefix(out, "00-0af7651916cd43dd8448eb211c80319c-") || !strings.HasSuffix(out, "-01") {
		t.Fatalf("outgoing traceparent %q must keep the trace ID", out)
	}
	trace.Finish(200)
	if rec := tr.Slow(); len(rec) == 0 {
		// Not slow and not errored; with a tiny sample fraction the slow
		// list may legitimately hold it only if admitted as a filler.
		_ = rec
	}
}

func TestUnsampledRequestKeepsRequestID(t *testing.T) {
	tr := New(Config{SampleFraction: 1e-12})
	sampledSeen := false
	for i := 0; i < 50; i++ {
		ctx, trace, reqID := tr.StartRequest(context.Background(), "r", "")
		if trace != nil {
			sampledSeen = true
			trace.Finish(200)
			continue
		}
		if len(reqID) != 32 {
			t.Fatalf("unsampled request ID %q", reqID)
		}
		if RequestID(ctx) != reqID {
			t.Fatal("unsampled ctx must still carry the request ID")
		}
		_, sp := Start(ctx, "x")
		if sp.Active() {
			t.Fatal("span under unsampled ctx must be inert")
		}
	}
	if sampledSeen {
		t.Log("note: sampled at fraction 1e-12 (astronomically unlikely)")
	}
}

func TestMaxSpansCapCountsDropped(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour})
	_, trace, _ := tr.StartRequest(context.Background(), "r", "")
	for i := 0; i < maxSpans+6; i++ { // the root span takes one slot
		trace.StartSpan(0, "s").End()
	}
	trace.Finish(200)
	rec := tr.Recent()[0]
	if len(rec.Spans) != maxSpans || rec.Dropped != 7 {
		t.Fatalf("spans=%d dropped=%d, want %d and 7", len(rec.Spans), rec.Dropped, maxSpans)
	}
}

func TestSpanFailMarksTraceErrored(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour})
	_, trace, _ := tr.StartRequest(context.Background(), "r", "")
	sp := trace.StartSpan(0, "admission")
	sp.Fail("rejected")
	sp.End()
	trace.Finish(200)
	rec := tr.Recent()[0]
	if !rec.Error {
		t.Fatal("span Fail must mark the trace errored")
	}
	if rec.Spans[1].Error != "rejected" {
		t.Fatalf("span error = %q", rec.Spans[1].Error)
	}
	// Errored traces are always retained in the slow list.
	if len(tr.Slow()) != 1 {
		t.Fatal("errored trace must land in the slow list")
	}
}

// TestSetIntFormatsDecimal: SetInt records v in base 10, both extremes of
// int64 included.
func TestSetIntFormatsDecimal(t *testing.T) {
	cases := []int64{0, 7, -3, 1234567, -9007199254740993, math.MaxInt64, math.MinInt64}
	tr := New(Config{})
	ctx, trace, _ := tr.StartRequest(context.Background(), "r", "")
	_, sp := Start(ctx, "ints")
	for i, v := range cases {
		sp.SetInt(strconv.Itoa(i), v)
	}
	sp.End()
	trace.Finish(200)
	for _, s := range tr.Recent()[0].Spans {
		if s.Name != "ints" {
			continue
		}
		for i, v := range cases {
			if got, want := s.Attrs[strconv.Itoa(i)], fmt.Sprint(v); got != want {
				t.Errorf("SetInt(%d) recorded %q, want %q", v, got, want)
			}
		}
		return
	}
	t.Fatal("the trace has no span \"ints\"")
}

// FuzzParseTraceparent: any header the parser accepts must round-trip
// through FormatTraceparent — the formatted header parses back to the same
// IDs and sampling decision, and is the input itself when the input's
// flags were the canonical 00 or 01.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-fe")
	f.Add("00-00000000000000000000000000000000-b7ad6b7169203331-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		tid, pid, sampled, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		out := FormatTraceparent(tid, pid, sampled)
		tid2, pid2, sampled2, ok2 := ParseTraceparent(out)
		if !ok2 || tid2 != tid || pid2 != pid || sampled2 != sampled {
			t.Fatalf("%q parsed to (%q, %q, %v) but formats to %q, which parses to (%q, %q, %v, %v)",
				h, tid, pid, sampled, out, tid2, pid2, sampled2, ok2)
		}
		if flags := h[len(h)-2:]; (flags == "00" || flags == "01") && out != h {
			t.Fatalf("%q formats back as %q", h, out)
		}
	})
}

// TestLogHandler pins LogHandler's trace_id: a context from StartRequest
// stamps the request ID whether or not the request was sampled, an
// untraced context adds none, and loggers derived through WithAttrs and
// WithGroup keep stamping.
func TestLogHandler(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(LogHandler(slog.NewJSONHandler(&buf, nil)))
	line := func() map[string]any {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Fatalf("line %q is not one JSON object: %v", buf.Bytes(), err)
		}
		buf.Reset()
		return m
	}
	sampled, trc, id := New(Config{}).StartRequest(context.Background(), "r", "")
	defer trc.Finish(200)
	unsampled, none, uid := New(Config{SampleFraction: 1e-12}).StartRequest(context.Background(), "r", "")
	if none != nil || uid == "" {
		t.Fatalf("want an unsampled request with an ID, got trace %v, ID %q", none, uid)
	}

	log.InfoContext(sampled, "sampled", "endpoint", "predict")
	if m := line(); m["trace_id"] != id || m["endpoint"] != "predict" {
		t.Errorf("sampled request: %v, want trace_id %s", m, id)
	}
	log.InfoContext(unsampled, "unsampled")
	if m := line(); m["trace_id"] != uid {
		t.Errorf("unsampled request: %v, want trace_id %s", m, uid)
	}
	log.InfoContext(context.Background(), "untraced")
	if m := line(); m["trace_id"] != nil {
		t.Errorf("untraced context stamped %v", m["trace_id"])
	}
	log.With("k", "v").InfoContext(sampled, "with attrs")
	if m := line(); m["trace_id"] != id || m["k"] != "v" {
		t.Errorf("WithAttrs logger: %v, want trace_id %s and k=v", m, id)
	}
	log.WithGroup("g").InfoContext(sampled, "grouped", "a", 1)
	if g, _ := line()["g"].(map[string]any); g["trace_id"] != id || g["a"] != 1.0 {
		t.Errorf("WithGroup logger: group %v, want trace_id %s and a=1", g, id)
	}
}
