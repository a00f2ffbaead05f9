package traffic

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

func paperProblem(t testing.TB, n int, seed uint64) *sched.Problem {
	t.Helper()
	ls, err := network.Generate(network.PaperConfig(n), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sched.MustNewProblem(ls, radio.DefaultParams())
}

func TestBuildPlanCoversEveryLinkOnce(t *testing.T) {
	for _, algo := range []sched.Algorithm{sched.RLE{}, sched.LDP{}, sched.Greedy{}, sched.ApproxDiversity{}} {
		for seed := uint64(1); seed <= 3; seed++ {
			pr := paperProblem(t, 120, seed)
			plan, err := BuildPlan(pr, algo)
			if err != nil {
				t.Fatal(err)
			}
			if algo.Name() == "approxdiversity" {
				// Deterministic baseline slots can be fading-infeasible;
				// only coverage is guaranteed. Check coverage manually.
				if got := plan.TotalScheduled(); got != pr.N() {
					t.Errorf("%s seed %d: covered %d of %d", algo.Name(), seed, got, pr.N())
				}
				continue
			}
			if err := plan.Validate(pr); err != nil {
				t.Errorf("%s seed %d: %v", algo.Name(), seed, err)
			}
		}
	}
}

func TestBuildPlanSlotCountsOrdering(t *testing.T) {
	// RLE packs more per slot than LDP, so it needs fewer slots; both
	// need at least ⌈N/maxPack⌉ ≥ a handful and at most N slots.
	pr := paperProblem(t, 150, 4)
	rle, err := BuildPlan(pr, sched.RLE{})
	if err != nil {
		t.Fatal(err)
	}
	ldp, err := BuildPlan(pr, sched.LDP{})
	if err != nil {
		t.Fatal(err)
	}
	if rle.NumSlots() > ldp.NumSlots() {
		t.Errorf("RLE needed %d slots, LDP %d — expected RLE ≤ LDP", rle.NumSlots(), ldp.NumSlots())
	}
	if rle.NumSlots() <= 1 || rle.NumSlots() > pr.N() {
		t.Errorf("implausible slot count %d for N=%d", rle.NumSlots(), pr.N())
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	pr := paperProblem(t, 80, 7)
	a, err := BuildPlan(pr, sched.RLE{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(pr, sched.RLE{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSlots() != b.NumSlots() {
		t.Fatalf("plan lengths differ: %d vs %d", a.NumSlots(), b.NumSlots())
	}
	for k := range a.Slots {
		if a.Slots[k].String() != b.Slots[k].String() {
			t.Fatalf("slot %d differs", k)
		}
	}
}

func TestBuildPlanEmptyInstance(t *testing.T) {
	pr := sched.MustNewProblem(network.MustNewLinkSet(nil), radio.DefaultParams())
	plan, err := BuildPlan(pr, sched.RLE{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSlots() != 0 || len(plan.Unschedulable) != 0 {
		t.Errorf("empty instance plan: %+v", plan)
	}
	if err := plan.Validate(pr); err != nil {
		t.Error(err)
	}
}

func TestBuildPlanSingleLink(t *testing.T) {
	ls := network.MustNewLinkSet([]network.Link{
		{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 10, Y: 0}, Rate: 1},
	})
	pr := sched.MustNewProblem(ls, radio.DefaultParams())
	plan, err := BuildPlan(pr, sched.LDP{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSlots() != 1 || plan.Slots[0].Len() != 1 {
		t.Errorf("single link plan: %+v", plan)
	}
	if err := plan.Validate(pr); err != nil {
		t.Error(err)
	}
}

func TestBuildPlanNoiseDeadLinkReported(t *testing.T) {
	p := radio.DefaultParams()
	p.N0 = 2e-8
	ls := network.MustNewLinkSet([]network.Link{
		{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 10, Y: 0}, Rate: 1},
		{Sender: geom.Point{X: 1e4, Y: 0}, Receiver: geom.Point{X: 1e4 + 100, Y: 0}, Rate: 1},
	})
	pr := sched.MustNewProblem(ls, p)
	plan, err := BuildPlan(pr, sched.RLE{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Unschedulable) != 1 || plan.Unschedulable[0] != 1 {
		t.Fatalf("unschedulable = %v, want [1]", plan.Unschedulable)
	}
	if err := plan.Validate(pr); err != nil {
		t.Error(err)
	}
}

// stubborn refuses to schedule anything, exercising the forced-progress
// path.
type stubborn struct{}

func (stubborn) Name() string { return "stubborn" }
func (stubborn) Solve(context.Context, *sched.Problem, *sched.Scratch, []int) (sched.Schedule, error) {
	return sched.NewSchedule("stubborn", nil), nil
}

func TestBuildPlanForcesProgress(t *testing.T) {
	pr := paperProblem(t, 10, 1)
	plan, err := BuildPlan(pr, stubborn{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSlots() != 10 {
		t.Errorf("stubborn plan has %d slots, want 10 singletons", plan.NumSlots())
	}
	if err := plan.Validate(pr); err != nil {
		t.Error(err)
	}
	// Forced singletons must come out shortest-first.
	prev := -1.0
	for _, s := range plan.Slots {
		l := pr.Links.Length(s.Active[0])
		if l < prev {
			t.Fatal("forced slots not shortest-first")
		}
		prev = l
	}
}

func TestPlanValidateCatchesBadPlans(t *testing.T) {
	pr := paperProblem(t, 20, 2)
	good, err := BuildPlan(pr, sched.RLE{})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate coverage.
	dup := good
	dup.Slots = append([]sched.Schedule{}, good.Slots...)
	dup.Slots = append(dup.Slots, good.Slots[0])
	if dup.Validate(pr) == nil {
		t.Error("duplicate-coverage plan validated")
	}
	// Missing link.
	missing := good
	missing.Slots = good.Slots[1:]
	if missing.Validate(pr) == nil {
		t.Error("incomplete plan validated")
	}
	// Falsely unschedulable.
	falseU := good
	falseU.Unschedulable = []int{good.Slots[0].Active[0]}
	if falseU.Validate(pr) == nil {
		t.Error("plan with falsely-unschedulable link validated")
	}
}

func BenchmarkBuildPlanRLE200(b *testing.B) {
	pr := paperProblem(b, 200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := BuildPlan(pr, sched.RLE{})
		if err != nil {
			b.Fatal(err)
		}
		if plan.NumSlots() == 0 {
			b.Fatal("empty plan")
		}
	}
}
