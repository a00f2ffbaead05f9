package sched

import (
	"context"
	"testing"

	"repro/internal/network"
)

func TestScheduleWeightedZeroSelectionMatchesGreedy(t *testing.T) {
	pr := paperProblem(t, 200, 31)
	pp := NewPrepared(pr)
	want := pp.Schedule(Greedy{})
	got, err := pp.ScheduleWeightedInto(context.Background(), Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got.Active, want.Active) {
		t.Errorf("zero selection diverged from greedy:\n got %v\nwant %v", got.Active, want.Active)
	}
}

// TestScheduleWeightedMaskMatchesSubProblem is the equivalence the
// traffic engine's backlog policy rests on: greedy restricted via a
// mask on the full prepared field must match legacy greedy on a
// rebuilt sub-instance over the masked links.
func TestScheduleWeightedMaskMatchesSubProblem(t *testing.T) {
	pr := paperProblem(t, 150, 33)
	pp := NewPrepared(pr)
	n := pr.N()
	mask := make([]bool, n)
	var idxs []int
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			mask[i] = true
			idxs = append(idxs, i)
		}
	}
	got, err := pp.ScheduleWeightedInto(context.Background(), Selection{Mask: mask}, nil)
	if err != nil {
		t.Fatal(err)
	}

	links := make([]network.Link, len(idxs))
	for k, i := range idxs {
		links[k] = pr.Links.Link(i)
	}
	sub := MustNewProblem(network.MustNewLinkSet(links), pr.Params)
	subSched := Run(Greedy{}, sub)
	want := make([]int, 0, subSched.Len())
	for _, k := range subSched.Active {
		want = append(want, idxs[k])
	}
	if !equalInts(got.Active, want) {
		t.Errorf("masked solve diverged from sub-problem solve:\n got %v\nwant %v", got.Active, want)
	}
	for _, i := range got.Active {
		if !mask[i] {
			t.Errorf("masked solve scheduled excluded link %d", i)
		}
	}
}

func TestScheduleWeightedOrderFollowsWeights(t *testing.T) {
	// All-feasible sparse instance: every admitted link is scheduled,
	// and weight <= 0 excludes.
	pr := sparseProblem(t, 8)
	pp := NewPrepared(pr)
	w := make([]float64, 8)
	for i := range w {
		w[i] = float64(i + 1)
	}
	w[3] = 0
	w[5] = -2
	got, err := pp.ScheduleWeightedInto(context.Background(), Selection{Weights: w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 4, 6, 7}
	if !equalInts(got.Active, want) {
		t.Errorf("weighted solve: got %v, want %v", got.Active, want)
	}
}

func TestScheduleWeightedPrefersHeavyQueue(t *testing.T) {
	// On a congested paper instance, a heavily weighted link must be
	// admitted: it is considered first, and any single link is feasible
	// alone under the paper's zero-noise model.
	pr := paperProblem(t, 120, 35)
	pp := NewPrepared(pr)
	base := pp.Schedule(Greedy{})
	excluded := -1
	inBase := make(map[int]bool, base.Len())
	for _, i := range base.Active {
		inBase[i] = true
	}
	for i := 0; i < pr.N(); i++ {
		if !inBase[i] {
			excluded = i
			break
		}
	}
	if excluded < 0 {
		t.Skip("greedy scheduled every link; instance not congested")
	}
	w := make([]float64, pr.N())
	for i := range w {
		w[i] = 1
	}
	w[excluded] = 1e9
	got, err := pp.ScheduleWeightedInto(context.Background(), Selection{Weights: w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range got.Active {
		if i == excluded {
			found = true
		}
	}
	if !found {
		t.Errorf("link %d with dominant weight not scheduled: %v", excluded, got.Active)
	}
}

func TestScheduleWeightedValidation(t *testing.T) {
	pr := paperProblem(t, 20, 37)
	pp := NewPrepared(pr)
	ctx := context.Background()
	if _, err := pp.ScheduleWeightedInto(ctx, Selection{Mask: make([]bool, 5)}, nil); err == nil {
		t.Error("short mask accepted")
	}
	if _, err := pp.ScheduleWeightedInto(ctx, Selection{Weights: make([]float64, 50)}, nil); err == nil {
		t.Error("long weights accepted")
	}
}

func TestScheduleWeightedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	pr := paperProblem(t, 300, 39)
	pp := NewPrepared(pr)
	n := pr.N()
	mask := make([]bool, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		mask[i] = i%2 == 0
		w[i] = float64(i%7 + 1)
	}
	sel := Selection{Mask: mask, Weights: w}
	ctx := context.Background()
	s, err := pp.ScheduleWeightedInto(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := s.Active
	// Hold one scratch back so the pool cannot go empty mid-measurement.
	held := pp.getScratch()
	defer pp.putScratch(held)
	allocs := testing.AllocsPerRun(20, func() {
		out, err := pp.ScheduleWeightedInto(ctx, sel, dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = out.Active
	})
	if allocs != 0 {
		t.Errorf("steady-state weighted solve allocates %v per run, want 0", allocs)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
