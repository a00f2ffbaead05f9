package mc

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

func denseProblem(t testing.TB, n int, seed uint64) *sched.Problem {
	t.Helper()
	ls, err := network.Generate(network.PaperConfig(n), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sched.MustNewProblem(ls, radio.DefaultParams())
}

func fullSchedule(pr *sched.Problem) sched.Schedule {
	idxs := make([]int, pr.N())
	for i := range idxs {
		idxs[i] = i
	}
	return sched.NewSchedule("all", idxs)
}

func TestSimulateEmptySchedule(t *testing.T) {
	pr := denseProblem(t, 10, 1)
	res, err := Simulate(pr, sched.NewSchedule("", nil), Config{Slots: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures.Mean() != 0 || res.Failures.N() != 20 {
		t.Errorf("empty schedule failures: %v", res.Failures)
	}
	if res.FailureRate() != 0 {
		t.Errorf("failure rate = %v", res.FailureRate())
	}
}

func TestSimulateNegativeSlots(t *testing.T) {
	pr := denseProblem(t, 5, 1)
	if _, err := Simulate(pr, fullSchedule(pr), Config{Slots: -1}); err == nil {
		t.Error("negative slot count accepted")
	}
}

func TestSimulateLoneLinkNeverFails(t *testing.T) {
	ls := network.MustNewLinkSet([]network.Link{
		{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 10, Y: 0}, Rate: 1},
	})
	pr := sched.MustNewProblem(ls, radio.DefaultParams())
	res, err := Simulate(pr, fullSchedule(pr), Config{Slots: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures.Mean() != 0 {
		t.Errorf("interference-free link failed %v times/slot on average", res.Failures.Mean())
	}
	if res.Expected != 0 {
		t.Errorf("analytic expectation = %v, want 0", res.Expected)
	}
}

func TestSimulateMatchesAnalyticExpectation(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo comparison skipped in -short mode")
	}
	// A deliberately overloaded schedule (all 40 links of a dense
	// deployment): empirical mean failures per slot must match the
	// Theorem 3.1 expectation within sampling error.
	cfg := network.PaperConfig(40)
	cfg.Region = 150
	ls, err := network.Generate(cfg, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := sched.MustNewProblem(ls, radio.DefaultParams())
	s := fullSchedule(pr)
	res, err := Simulate(pr, s, Config{Slots: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Failures.Mean(), res.Expected
	if want <= 1 {
		t.Fatalf("test instance not overloaded enough: expected failures %v", want)
	}
	// 5σ tolerance from the empirical standard error.
	if tol := 5 * res.Failures.StdErr(); math.Abs(got-want) > tol {
		t.Errorf("empirical %v vs analytic %v (tol %v)", got, want, tol)
	}
}

func TestSimulateDeterministicAcrossWorkerCounts(t *testing.T) {
	pr := denseProblem(t, 60, 4)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	base, err := Simulate(pr, s, Config{Slots: 64, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		res, err := Simulate(pr, s, Config{Slots: 64, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures.Mean() != base.Failures.Mean() || res.Failures.Variance() != base.Failures.Variance() {
			t.Errorf("workers=%d changed results: %v vs %v", workers, res.Failures, base.Failures)
		}
		for k := range base.PerLinkFailures {
			if res.PerLinkFailures[k] != base.PerLinkFailures[k] {
				t.Fatalf("workers=%d: per-link counts differ at %d", workers, k)
			}
		}
	}
}

func TestSimulateSeedSensitivity(t *testing.T) {
	pr := denseProblem(t, 60, 4)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	a, _ := Simulate(pr, s, Config{Slots: 50, Seed: 1})
	b, _ := Simulate(pr, s, Config{Slots: 50, Seed: 2})
	if a.Failures.Mean() == b.Failures.Mean() && a.Failures.Variance() == b.Failures.Variance() {
		t.Error("different seeds produced identical failure statistics")
	}
}

func TestSimulateFeasibleScheduleRespectsEpsilon(t *testing.T) {
	// A fading-aware schedule guarantees each link ≥ 1−ε success, so
	// the per-link empirical failure rate must stay near or below ε.
	pr := denseProblem(t, 200, 5)
	s := sched.Run(sched.RLE{}, pr)
	if s.Len() == 0 {
		t.Fatal("RLE scheduled nothing")
	}
	const slots = 2000
	res, err := Simulate(pr, s, Config{Slots: slots, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range res.PerLinkFailures {
		rate := float64(c) / slots
		// ε = 0.01 with 2000 slots: 5σ ≈ 0.01 + 5·sqrt(0.01·0.99/2000) ≈ 0.021.
		if rate > 0.021 {
			t.Errorf("scheduled link %d fails at rate %v > ε envelope", s.Active[k], rate)
		}
	}
}

func TestFailureRate(t *testing.T) {
	pr := denseProblem(t, 30, 8)
	s := fullSchedule(pr)
	res, err := Simulate(pr, s, Config{Slots: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Failures.Mean() / float64(s.Len())
	if got := res.FailureRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("FailureRate = %v, want %v", got, want)
	}
}

func BenchmarkSimulate100Links100Slots(b *testing.B) {
	ls, err := network.Generate(network.PaperConfig(100), 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	pr := sched.MustNewProblem(ls, radio.DefaultParams())
	s := sched.Run(sched.ApproxDiversity{}, pr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(pr, s, Config{Slots: 100, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
