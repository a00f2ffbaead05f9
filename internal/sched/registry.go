package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Algorithm is a Fading-R-LS scheduler: it consumes a Problem and
// returns the set of links to activate in the single time slot.
// Implementations must be deterministic for a given Problem (stochastic
// algorithms like DLS carry their seed in the value).
//
// Solve is the one entry point; callers go through Run,
// ScheduleContext or a Prepared handle, which check ctx around it and
// supply the workspace. An implementation reads its tracer with
// obs.TracerFrom(ctx), may run its inner loops off scr (never nil), and
// may write the active set into dst[:0] to recycle the caller's buffer.
// Solves that can run long poll ctx and return ctx.Err() on
// cancellation, discarding partial work: schedules are all-or-nothing.
type Algorithm interface {
	// Name is the registry key and the label used in experiment tables.
	Name() string
	// Solve computes the activation set.
	Solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Algorithm{}
)

// Register makes a (default-configured) algorithm available by name to
// CLIs and the experiment harness. Duplicate names error.
func Register(a Algorithm) error {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[a.Name()]; dup {
		return fmt.Errorf("sched: algorithm %q already registered", a.Name())
	}
	registry[a.Name()] = a
	return nil
}

func mustRegister(a Algorithm) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

// Lookup returns the registered algorithm with the given name.
func Lookup(name string) (Algorithm, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	a, ok := registry[name]
	return a, ok
}

// Names returns the sorted registry keys.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
