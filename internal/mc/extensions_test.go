package mc

// Tests for the simulator extensions: block (coherence) fading and
// per-link transmit power.

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

func TestCoherenceOneMatchesDefault(t *testing.T) {
	pr := denseProblem(t, 60, 4)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	a, err := Simulate(pr, s, Config{Slots: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(pr, s, Config{Slots: 80, Seed: 5, CoherenceSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures.Mean() != b.Failures.Mean() || a.Failures.Variance() != b.Failures.Variance() {
		t.Errorf("CoherenceSlots=1 differs from default: %v vs %v", a.Failures, b.Failures)
	}
}

func TestBlockFadingPreservesMeanRaisesVariance(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	pr := denseProblem(t, 80, 6)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	const slots = 4000
	iid, err := Simulate(pr, s, Config{Slots: slots, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	block, err := Simulate(pr, s, Config{Slots: slots, Seed: 8, CoherenceSlots: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Same marginal distribution ⇒ means agree within sampling error
	// (block fading has ~1/20th the effective samples, so allow a wide
	// tolerance based on its own standard error).
	tol := 6*block.Failures.StdErr()*math.Sqrt(20) + 0.1
	if math.Abs(iid.Failures.Mean()-block.Failures.Mean()) > tol {
		t.Errorf("block fading changed the mean: iid %v vs block %v (tol %v)",
			iid.Failures.Mean(), block.Failures.Mean(), tol)
	}
	// Within-block repetition makes per-slot counts strongly
	// correlated; the empirical variance of the slot series must grow.
	if block.Failures.Variance() <= iid.Failures.Variance() {
		t.Errorf("block fading did not raise variance: iid %v vs block %v",
			iid.Failures.Variance(), block.Failures.Variance())
	}
}

func TestBlockFadingSlotsWithinBlockIdentical(t *testing.T) {
	// With one block covering all slots, every slot sees the same
	// channel, so the failure count is constant across slots.
	pr := denseProblem(t, 50, 9)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	res, err := Simulate(pr, s, Config{Slots: 32, Seed: 3, CoherenceSlots: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures.N() != 32 {
		t.Fatalf("slots = %d", res.Failures.N())
	}
	if v := res.Failures.Variance(); v != 0 {
		t.Errorf("single-block simulation has nonzero slot variance %v", v)
	}
}

func TestBlockFadingDeterministicAcrossWorkers(t *testing.T) {
	pr := denseProblem(t, 60, 2)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	base, err := Simulate(pr, s, Config{Slots: 50, Seed: 4, CoherenceSlots: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Simulate(pr, s, Config{Slots: 50, Seed: 4, CoherenceSlots: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if base.Failures.Mean() != again.Failures.Mean() {
		t.Error("block fading results depend on worker count")
	}
}

func TestSimulatePerLinkPower(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	// Receiver 0 suffers one interferer; raising the interferer's
	// power from 1 to 8 must cut link 0's empirical success rate to
	// the new closed-form value.
	mk := func(power float64) *sched.Problem {
		ls := network.MustNewLinkSet([]network.Link{
			{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 10, Y: 0}, Rate: 1},
			{Sender: geom.Point{X: 40, Y: 0}, Receiver: geom.Point{X: 40, Y: 10}, Rate: 1, Power: power},
		})
		return sched.MustNewProblem(ls, radio.DefaultParams())
	}
	for _, power := range []float64{1, 8} {
		pr := mk(power)
		s := sched.NewSchedule("all", []int{0, 1})
		want := sched.SuccessProbabilities(pr, s)[0]
		const slots = 30000
		res, err := Simulate(pr, s, Config{Slots: slots, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		got := 1 - float64(res.PerLinkFailures[0])/slots
		tol := 5*math.Sqrt(want*(1-want)/slots) + 1e-9
		if math.Abs(got-want) > tol {
			t.Errorf("power %v: empirical success %v vs closed form %v (tol %v)", power, got, want, tol)
		}
	}
	// Sanity: the boosted interferer must actually hurt.
	if p1, p8 := mk(1), mk(8); sched.SuccessProbabilities(p8, sched.NewSchedule("", []int{0, 1}))[0] >=
		sched.SuccessProbabilities(p1, sched.NewSchedule("", []int{0, 1}))[0] {
		t.Error("8× interferer power did not reduce the closed-form success probability")
	}
}

func TestSimulateWithNoiseMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	p := radio.DefaultParams()
	p.N0 = 2e-5 // noise term for d=10: 1·2e-5·1000 = 0.02 ⇒ ≈2% outage alone
	ls := network.MustNewLinkSet([]network.Link{
		{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 10, Y: 0}, Rate: 1},
	})
	pr := sched.MustNewProblem(ls, p)
	s := sched.NewSchedule("one", []int{0})
	want := sched.SuccessProbabilities(pr, s)[0]
	if want >= 1 {
		t.Fatalf("noise test setup wrong: closed form %v", want)
	}
	const slots = 40000
	res, err := Simulate(pr, s, Config{Slots: slots, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	got := 1 - float64(res.PerLinkFailures[0])/slots
	tol := 5 * math.Sqrt(want*(1-want)/slots)
	if math.Abs(got-want) > tol {
		t.Errorf("noise-limited success: empirical %v vs closed form %v (tol %v)", got, want, tol)
	}
}
