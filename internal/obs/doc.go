// Package obs is the repository's unified observability layer: a typed
// metrics registry with Prometheus text exposition, one span-tracing
// API (Trace and its value-type Span) serving both request traces and
// per-solve phase and counter accounting, and log/slog helpers that
// correlate every log line with a per-request trace ID.
//
// The package is stdlib-only by design — it must be importable from
// the innermost solver loops (internal/sched) without dragging in any
// dependency, and the untraced path must cost nothing: every method of
// the inert zero Span is a no-op that allocates zero bytes (guarded by
// BenchmarkTracerDisabled and TestTracerDisabledAllocs).
//
// Context keys tie the layer together:
//
//   - WithTracer/TracerFrom carry one solve's trace (NewTracer);
//     schedd's solve handler installs one, the solvers record phases
//     and counters under its root, Trace.Stats renders the response's
//     "stats" field, and Span.Graft copies it into the request trace.
//   - ContextWithSpan/SpanFrom carry the request trace's current span.
//     Solvers never read it, so a solve without a solve trace opens no
//     spans.
//   - WithTraceID/TraceIDFrom carry the request's trace ID; NewHandler
//     wraps any slog.Handler so records logged with that context gain
//     a trace_id attribute — the join key between access logs, solver
//     traces, and cache hit/miss lines.
package obs
