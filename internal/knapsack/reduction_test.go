package knapsack

import (
	"math"
	"testing"

	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
)

func TestReduceGadgetGeometry(t *testing.T) {
	in := Instance{
		Items:    []Item{{Value: 3, Weight: 4}, {Value: 5, Weight: 7}},
		Capacity: 10,
	}
	p := radio.DefaultParams()
	red, err := Reduce(in, p)
	if err != nil {
		t.Fatal(err)
	}
	ls := red.Links
	if ls.Len() != 3 {
		t.Fatalf("reduced instance has %d links, want 3", ls.Len())
	}
	// Gadget link: length exactly 1 (from (0,1) to (0,0)).
	if got := ls.Length(red.GadgetIndex); math.Abs(got-1) > 1e-12 {
		t.Errorf("gadget length = %v, want 1", got)
	}
	if red.GadgetRate != 2*(3+5) {
		t.Errorf("gadget rate = %v, want 16", red.GadgetRate)
	}
	// Eq. 23 invariant: the interference factor of item sender i on the
	// gadget receiver equals γ_ε·w_i/W exactly.
	ge := p.GammaEps()
	for i, it := range in.Items {
		dist := ls.Link(i).Sender.Dist(ls.Link(red.GadgetIndex).Receiver)
		f := p.InterferenceFactor(dist, 1)
		want := ge * float64(it.Weight) / float64(in.Capacity)
		if math.Abs(f-want)/want > 1e-9 {
			t.Errorf("item %d factor on gadget = %v, want %v", i, f, want)
		}
	}
}

func TestReduceEqualWeightsDistinctSenders(t *testing.T) {
	// The paper's literal Eq. 23 would collide these; our angular
	// placement must keep them distinct while preserving radii.
	in := Instance{
		Items:    []Item{{1, 5}, {2, 5}, {3, 5}},
		Capacity: 12,
	}
	red, err := Reduce(in, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r0 := red.Links.Link(0).Sender.Dist(red.Links.Link(red.GadgetIndex).Receiver)
	for i := 1; i < 3; i++ {
		ri := red.Links.Link(i).Sender.Dist(red.Links.Link(red.GadgetIndex).Receiver)
		if math.Abs(ri-r0) > 1e-9 {
			t.Errorf("equal weights map to different radii: %v vs %v", ri, r0)
		}
	}
}

func TestReduceItemSubsetsFeasibleIffWeightFits(t *testing.T) {
	// The heart of Theorem 3.2: {items S} ∪ {gadget} is a feasible
	// schedule iff Σ_{i∈S} w_i ≤ W. Sweep every subset of a small
	// instance.
	in := Instance{
		Items:    []Item{{4, 3}, {7, 5}, {2, 4}, {9, 6}},
		Capacity: 9,
	}
	p := radio.DefaultParams()
	red, err := Reduce(in, p)
	if err != nil {
		t.Fatal(err)
	}
	pr := sched.MustNewProblem(red.Links, p)
	n := len(in.Items)
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		var w int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
				w += in.Items[i].Weight
			}
		}
		set = append(set, red.GadgetIndex)
		feasible := sched.Feasible(pr, sched.NewSchedule("", set))
		if want := w <= in.Capacity; feasible != want {
			t.Errorf("subset %b (weight %d): feasible = %v, want %v", mask, w, feasible, want)
		}
	}
}

func TestReductionOptimaAgree(t *testing.T) {
	// Full mechanical Theorem 3.2 check: exact scheduling optimum on
	// the reduced instance = 2·Σp + knapsack optimum.
	src := rng.Stream(99, "reduction", 0)
	p := radio.DefaultParams()
	for trial := 0; trial < 12; trial++ {
		in := randomInstance(src, 8, 10)
		if in.Capacity == 0 {
			in.Capacity = 1
		}
		knapOpt, _, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		red, err := Reduce(in, p)
		if err != nil {
			t.Fatal(err)
		}
		pr := sched.MustNewProblem(red.Links, p)
		s := sched.Run(sched.Exact{}, pr)
		var sumValue float64
		for _, it := range in.Items {
			sumValue += it.Value
		}
		want := red.GadgetRate + knapOpt
		if got := s.Throughput(pr); math.Abs(got-want) > 1e-6*(1+want) {
			t.Errorf("trial %d: scheduling optimum %v, want 2Σp+knapOPT = %v (knapOPT %v, Σp %v)",
				trial, got, want, knapOpt, sumValue)
		}
		// And the schedule maps back to a capacity-respecting item set.
		items := red.ItemsFromSchedule(s.Active)
		if w := in.TotalWeight(items); w > in.Capacity {
			t.Errorf("trial %d: mapped-back items weigh %d > capacity %d", trial, w, in.Capacity)
		}
	}
}

func TestReduceRejectsBadInput(t *testing.T) {
	p := radio.DefaultParams()
	if _, err := Reduce(Instance{Capacity: 5}, p); err == nil {
		t.Error("empty item list accepted")
	}
	if _, err := Reduce(Instance{Items: []Item{{1, 1}}, Capacity: 0}, p); err == nil {
		t.Error("zero capacity accepted")
	}
	bad := p
	bad.Alpha = 1
	if _, err := Reduce(Instance{Items: []Item{{1, 1}}, Capacity: 3}, bad); err == nil {
		t.Error("invalid radio params accepted")
	}
}

func TestReduceZeroValueItems(t *testing.T) {
	in := Instance{Items: []Item{{0, 2}, {5, 3}}, Capacity: 5}
	red, err := Reduce(in, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if red.Links.Len() != 3 {
		t.Errorf("links = %d", red.Links.Len())
	}
}
