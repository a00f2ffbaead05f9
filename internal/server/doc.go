// Package server implements schedd, the long-running HTTP scheduling
// service over the Fading-R-LS solvers: POST /v1/solve accepts a JSON
// link set plus model parameters, runs any registered algorithm
// through the sched registry under a per-request deadline, optionally
// Monte-Carlo-validates the schedule, and returns the activation set
// with per-link success probabilities. POST /v1/traffic drives the
// internal/traffic engine over the same prepared-field cache: queued
// arrivals, a per-slot queue-aware solve, and delay/drift diagnostics,
// with a request deadline truncating the run rather than failing it.
//
// The serving pipeline is:
//
//	decode (size-capped, strict JSON) → canonical hash → LRU cache
//	→ bounded worker pool → context-aware solve → verify/simulate
//	→ encode once, cache, reply
//
// Every JSON body endpoint accepts exactly encoding/json's strict
// decode (unknown fields and trailing data rejected). decodeRequest
// reads the body once and fills the request in one byte-level pass
// when it is in the canonical subset json.Marshal emits, falling back
// to encoding/json for anything else, so values and error texts are
// the stdlib's either way.
//
// Repeated queries on the same topology are O(1): the cache key is a
// SHA-256 over the exact solve inputs (link geometry, rates, powers,
// radio parameters, field backend, Monte-Carlo request), and the
// cached value is the encoded response body, so a hit is byte-
// identical to the miss that populated it (the X-Cache header is the
// only difference).
//
// Observability is one Prometheus export: request/response/error
// counters, the request-latency histogram, cache, session and pool
// series, and an in-flight gauge are served at /metrics on the API
// listener; DebugHandler serves the same /metrics and additionally
// mounts net/http/pprof for a private port. Graceful shutdown is inherited from
// http.Server.Shutdown — handlers run to completion, so in-flight
// solves drain under their own deadlines.
package server
