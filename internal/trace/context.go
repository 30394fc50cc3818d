package trace

import (
	"context"
	"log/slog"
)

// Context aliases context.Context so the package's own files read
// without importing both names.
type Context = context.Context

// ctxKey is the single context key; the value is a *ctxRef.
type ctxKey struct{}

// ctxRef points a context at its trace: the live *Trace (nil when the
// request was not sampled — the request ID still propagates for logs)
// and the index of the current span, so Start nests correctly.
type ctxRef struct {
	t     *Trace
	span  int32
	reqID string
}

func withRef(ctx Context, ref *ctxRef) Context {
	return context.WithValue(ctx, ctxKey{}, ref)
}

// RequestID returns the request ID carried by ctx ("" when the request
// did not pass through a Tracer). Unsampled requests keep their ID.
func RequestID(ctx Context) string {
	if ref, ok := ctx.Value(ctxKey{}).(*ctxRef); ok {
		return ref.reqID
	}
	return ""
}

// LogHandler wraps h so every record logged with a context that passed
// through a Tracer carries the request's trace_id (the X-Request-Id
// header and the /debug/traces ID), sampled or not. Under WithGroup the
// trace_id lands in the open group, as every record attribute does.
func LogHandler(h slog.Handler) slog.Handler { return logHandler{h} }

type logHandler struct{ slog.Handler }

func (h logHandler) Handle(ctx Context, r slog.Record) error {
	if id := RequestID(ctx); id != "" {
		r.AddAttrs(slog.String("trace_id", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h logHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return logHandler{h.Handler.WithAttrs(attrs)}
}

func (h logHandler) WithGroup(name string) slog.Handler {
	return logHandler{h.Handler.WithGroup(name)}
}

// Start opens a span named name as a child of ctx's current span and
// returns a context whose current span is the new one. When ctx carries
// no sampled trace, ctx is returned unchanged with an inert Span —
// zero allocations, so the predict hot path can call it unconditionally.
func Start(ctx Context, name string) (Context, Span) {
	ref, ok := ctx.Value(ctxKey{}).(*ctxRef)
	if !ok || ref.t == nil {
		return ctx, Span{}
	}
	sp := ref.t.StartSpan(ref.span, name)
	if sp.t == nil { // span cap reached
		return ctx, sp
	}
	return withRef(ctx, &ctxRef{t: ref.t, span: sp.idx, reqID: ref.reqID}), sp
}
