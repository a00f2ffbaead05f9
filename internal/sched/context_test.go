package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/radio"
)

// hardExactInstance is a deployment whose exact solve takes seconds
// uncancelled (n=34 at medium density has ~half the links in the
// optimum — the worst case for branch-and-bound pruning).
func hardExactInstance(t *testing.T) *Problem {
	t.Helper()
	ls, err := network.Generate(network.GenConfig{
		N: 34, Region: 600, MinLinkLen: 5, MaxLinkLen: 20, Rate: 1,
	}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	return MustNewProblem(ls, radio.DefaultParams())
}

// TestExactAbortsOnCancel proves the branch-and-bound observes
// cancellation mid-search: the uncancelled solve takes seconds, the
// canceled one must return orders of magnitude sooner with ctx's error
// and no schedule.
func TestExactAbortsOnCancel(t *testing.T) {
	pr := hardExactInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	s, err := ScheduleContext(ctx, Exact{MaxN: 64}, pr)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if s.Len() != 0 {
		t.Errorf("canceled solve leaked a schedule: %v", s)
	}
	// Generous bound (the uncancelled solve is ~5s, far more under
	// -race): the abort must land promptly after the deadline.
	if elapsed > 3*time.Second {
		t.Errorf("canceled exact solve took %v — stop flag not observed", elapsed)
	}
}

// TestExactContextCompletesAndMatches: with a live context the
// context-aware path must produce exactly the plain Schedule result.
func TestExactContextCompletesAndMatches(t *testing.T) {
	ls, err := network.Generate(network.PaperConfig(14), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := MustNewProblem(ls, radio.DefaultParams())
	plain := Run(Exact{}, pr)
	withCtx, err := ScheduleContext(context.Background(), Exact{}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Throughput(pr) != withCtx.Throughput(pr) {
		t.Errorf("context path throughput %v != plain %v", withCtx.Throughput(pr), plain.Throughput(pr))
	}
}

// TestDLSAbortsBetweenRounds: a pre-canceled context stops the
// protocol at the first round boundary.
func TestDLSAbortsBetweenRounds(t *testing.T) {
	ls, err := network.Generate(network.PaperConfig(50), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := MustNewProblem(ls, radio.DefaultParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := ScheduleContext(ctx, DLS{Seed: 1}, pr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if s.Len() != 0 {
		t.Errorf("canceled DLS leaked a schedule: %v", s)
	}
}

// TestScheduleContextPlainAlgorithms: the helper must run non-context
// algorithms unchanged under a live context and refuse a dead one.
func TestScheduleContextPlainAlgorithms(t *testing.T) {
	ls, err := network.Generate(network.PaperConfig(20), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := MustNewProblem(ls, radio.DefaultParams())
	for _, name := range []string{"ldp", "rle", "greedy", "approxlogn"} {
		s, err := SolveContext(context.Background(), name, pr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, _ := Lookup(name)
		if want := Run(a, pr); want.Throughput(pr) != s.Throughput(pr) {
			t.Errorf("%s: SolveContext result differs from Schedule", name)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, "ldp", pr); !errors.Is(err, context.Canceled) {
		t.Errorf("dead context accepted: %v", err)
	}
	if _, err := SolveContext(context.Background(), "zz-no-such-algo", pr); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
