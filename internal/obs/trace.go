package obs

import (
	"context"
	"slices"
	"time"
)

// Well-known solve-trace keys. Solvers report counters (Span.Add)
// under these names so schedd responses, CLI -trace output, and
// dashboards agree on vocabulary; the inventory is documented in
// DESIGN.md §8.
const (
	// KeyAlgorithm is the solve root's string attribute naming the
	// algorithm that ran; every other key is a counter.
	KeyAlgorithm = "algorithm"

	// Shared across algorithms.
	KeyLinks      = "links"     // instance size
	KeyScheduled  = "scheduled" // activation-set size
	KeyFieldPairs = "field_stored_pairs"

	// Exact branch-and-bound.
	KeyNodesExpanded = "nodes_expanded"
	KeyBoundCutoffs  = "bound_cutoffs"
	KeyInfeasible    = "infeasible_prunes"
	KeyIncumbents    = "incumbent_updates"
	KeySubtreeTasks  = "subtree_tasks"

	// DLS protocol rounds.
	KeyRounds = "rounds"
	KeyWinner = "round_winners"
	KeyNacks  = "nacks"
	KeyGaveUp = "gave_up"

	// Elimination core (RLE, ApproxDiversity).
	KeyPicks = "picks"
	KeyRule1 = "rule1_eliminated"
	KeyRule2 = "rule2_eliminated"

	// Diversity-partition core (LDP, ApproxLogN).
	KeyClasses    = "length_classes"
	KeyGridCells  = "grid_cells"
	KeyCandidates = "candidate_schedules"

	// Greedy insertion.
	KeyAdmitted = "admitted"
	KeyRejected = "rejected"

	// Tile-sharded solving. KeyTiles is the partition's tile count,
	// KeyTilesSolved counts tiles completed (workers bump it live, so a
	// mid-solve Stats render shows fan-out progress), KeyTileAdmitted
	// the per-tile admissions surviving into the merge candidate list,
	// and KeyBoundaryRepairs the candidates the full-budget merge pass
	// dropped to resolve cross-tile conflicts.
	KeyTiles           = "tiles"
	KeyTilesSolved     = "tiles_solved"
	KeyTileAdmitted    = "tile_admitted"
	KeyBoundaryRepairs = "boundary_repairs"
)

// PhaseStat is one named phase's accumulated wall time.
type PhaseStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// SolveStats is the JSON-renderable summary of one solve's trace: the
// algorithm that ran, its per-phase wall times (in order of first
// start), and its counters. schedd embeds it under "stats" in the /v1/solve
// response; fadingsched -trace prints it.
type SolveStats struct {
	Algorithm string           `json:"algorithm,omitempty"`
	Phases    []PhaseStat      `json:"phases,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
}

// Counter returns the named counter (0 when absent), tolerating a nil
// receiver so callers can chain off an optional stats snapshot.
func (s *SolveStats) Counter(key string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[key]
}

// solveSpans is a solve trace's initial arena: the root plus the
// longest fixed phase sequence (greedy-sharded's sort, tile_partition
// and tile_merge); every other algorithm opens at most three spans. A
// solve trace grows past it rather than drop a span, so no phase or
// counter is ever lost at any GOMAXPROCS: greedy-sharded adds one
// tile_solve span per worker, at most GOMAXPROCS.
const solveSpans = 4

// NewTracer starts a solve trace: a small span tree rooted at "solve"
// that the dispatcher and the solvers fill through the Span returned
// by TracerFrom. The dispatcher stamps the root with the algorithm name
// and the instance counters; each solver phase is a child span carrying
// its own counters (Span.Add). Stats renders it; Span.Graft copies it
// into a request trace. Solve traces are not pooled.
func NewTracer() *Trace {
	t := &Trace{spans: make([]spanRecord, 0, solveSpans), grow: true}
	t.init("", "solve")
	return t
}

// Stats renders a solve trace as SolveStats: the algorithm from the
// root's KeyAlgorithm attribute, one phase per distinct non-root span
// name (same-named spans summed, in order of first start; an unended
// span counts its time so far), and the sum of every counter attribute
// in the tree. Safe to call mid-solve — GET /debug/state reads live
// tile progress this way. Returns nil on a nil trace, so the result
// can feed straight into an omitempty JSON field.
func (t *Trace) Stats() *SolveStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.begun)
	out := &SolveStats{}
	for i := range t.spans {
		rec := &t.spans[i]
		for _, a := range rec.attrs[:rec.nattrs] {
			switch {
			case a.kind == attrCount:
				if out.Counters == nil {
					out.Counters = make(map[string]int64)
				}
				out.Counters[a.key] += a.n
			case i == 0 && a.kind == attrStr && a.key == KeyAlgorithm:
				out.Algorithm = a.s
			}
		}
		if i == 0 {
			continue
		}
		dur := rec.dur
		if !rec.ended {
			dur = now - rec.start
		}
		k := slices.IndexFunc(out.Phases, func(p PhaseStat) bool { return p.Name == rec.name })
		if k < 0 {
			k = len(out.Phases)
			out.Phases = append(out.Phases, PhaseStat{Name: rec.name})
		}
		out.Phases[k].Seconds += dur.Seconds()
	}
	return out
}

type tracerKey struct{}

// WithTracer returns a context carrying the solve trace t; solvers
// reach its root with TracerFrom. The key is separate from the request
// span's (ContextWithSpan), so solves under a request trace that
// installed no tracer — session events, traffic slots — open no solver
// spans. Installing nil is allowed and equivalent to not installing one.
func WithTracer(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the root span of the context's solve trace, or
// the inert span when none is installed — so the untraced solve path
// costs a context lookup and nil checks, and allocates nothing.
func TracerFrom(ctx context.Context) Span {
	t, _ := ctx.Value(tracerKey{}).(*Trace)
	return t.Root()
}
