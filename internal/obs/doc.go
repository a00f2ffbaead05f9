// Package obs is the repository's unified observability layer: a typed
// metrics registry with Prometheus text exposition, a nil-safe solver Tracer threaded through contexts, and
// log/slog helpers that correlate every log line with a per-request
// trace ID.
//
// The package is stdlib-only by design — it must be importable from
// the innermost solver loops (internal/sched) without dragging in any
// dependency, and the disabled path must cost nothing: every Tracer
// method is safe to call on a nil receiver and allocates zero bytes
// (guarded by BenchmarkTracerDisabled and TestTracerDisabledAllocs).
//
// Three context keys tie the layer together:
//
//   - WithTracer/TracerFrom carry the per-solve *Tracer; schedd's
//     /v1/solve handler installs one, the solvers fill it, and the
//     response's "stats" field renders the snapshot.
//   - WithTraceID/TraceIDFrom carry the request's trace ID, generated
//     once in schedd's middleware.
//   - NewHandler wraps any slog.Handler so records logged with that
//     context automatically gain a trace_id attribute — the join key
//     between access logs, solver traces, and cache hit/miss lines.
package obs
