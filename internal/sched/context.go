package sched

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// ScheduleContext runs a on pr honoring ctx. The context is checked
// before the solve starts and again after it returns, so a caller never
// receives a schedule after its deadline; algorithms with unbounded or
// round-structured running time (Exact, DLS) additionally abort
// mid-solve.
//
// When ctx carries a solve trace (obs.WithTracer), the solve is
// traced: the dispatcher stamps the trace root with the algorithm name,
// instance size, and field-backend stats, and the algorithm adds its
// phases as child spans carrying their counters. Without one every
// span call is an inert no-op.
func ScheduleContext(ctx context.Context, a Algorithm, pr *Problem) (Schedule, error) {
	return scheduleWith(ctx, a, pr, nil, nil)
}

// Run solves pr with a under a background context, the form for
// callers without a deadline. Under a context that is never canceled
// the registered algorithms cannot fail, so an error here is a program
// bug and panics; use ScheduleContext to receive errors instead.
func Run(a Algorithm, pr *Problem) Schedule {
	s, err := ScheduleContext(context.Background(), a, pr)
	if err != nil {
		panic("sched: " + a.Name() + " solve failed: " + err.Error())
	}
	return s
}

// scheduleWith is the one dispatcher behind Run, ScheduleContext and
// Prepared: it runs a.Solve off the supplied workspace (or a fresh one
// when scr is nil, the non-prepared allocation profile) between the
// two context checks, and records the dispatcher's trace counters.
func scheduleWith(ctx context.Context, a Algorithm, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	if err := ctx.Err(); err != nil {
		return Schedule{}, err
	}
	root := obs.TracerFrom(ctx)
	root.SetStr(obs.KeyAlgorithm, a.Name())
	root.Add(obs.KeyLinks, int64(pr.N()))
	if sp, ok := pr.field.(*SparseField); ok {
		root.Add(obs.KeyFieldPairs, int64(sp.StoredPairs()))
	}
	if scr == nil {
		scr = new(Scratch)
	}
	s, err := a.Solve(ctx, pr, scr, dst)
	if err != nil {
		return Schedule{}, err
	}
	if err := ctx.Err(); err != nil {
		return Schedule{}, err
	}
	root.Add(obs.KeyScheduled, int64(s.Len()))
	return s, nil
}

// SolveContext looks up a registered algorithm by name and runs it
// under ctx — the entry point long-running services use.
func SolveContext(ctx context.Context, name string, pr *Problem) (Schedule, error) {
	a, ok := Lookup(name)
	if !ok {
		return Schedule{}, fmt.Errorf("sched: unknown algorithm %q (have %v)", name, Names())
	}
	return ScheduleContext(ctx, a, pr)
}
