package dlsproto

import (
	"testing"

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

// TestRunFeasible is the governing invariant: whatever the distributed
// protocol converges to must pass the centralized verifier.
func TestRunFeasible(t *testing.T) {
	for _, n := range []int{40, 120, 250} {
		for seed := uint64(1); seed <= 3; seed++ {
			pr := paperProblem(t, n, seed)
			s, err := Run(pr, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if v := sched.Verify(pr, s); len(v) != 0 {
				t.Errorf("n=%d seed=%d: %d violations, first %v", n, seed, len(v), v[0])
			}
			if s.Len() == 0 {
				t.Errorf("n=%d seed=%d: protocol scheduled nothing", n, seed)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	pr := paperProblem(t, 100, 5)
	a, err := Run(pr, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pr, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("protocol nondeterministic:\n%v\n%v", a, b)
	}
	c, err := Run(pr, Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Log("note: different seeds produced identical schedules (possible but unlikely)")
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	empty := sched.MustNewProblem(network.MustNewLinkSet(nil), radio.DefaultParams())
	s, err := Run(empty, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("empty instance scheduled %d", s.Len())
	}
	one := paperProblem(t, 1, 1)
	s, err = Run(one, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("single link not scheduled: %v", s)
	}
}

func TestRunComparableToCentralizedDLS(t *testing.T) {
	// The distributed protocol should land in the same throughput
	// region as the centralized round model — within a factor of two
	// either way across seeds.
	var proto, central float64
	for seed := uint64(1); seed <= 4; seed++ {
		pr := paperProblem(t, 200, seed)
		s, err := Run(pr, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		proto += s.Throughput(pr)
		central += sched.Run(sched.DLS{Seed: seed}, pr).Throughput(pr)
	}
	if proto < central/2 || proto > central*2 {
		t.Errorf("distributed %v vs centralized %v — outside 2× band", proto, central)
	}
}

func TestRunShortRadioRangeStillFeasible(t *testing.T) {
	// A too-small radio range hides contenders, so elections produce
	// more simultaneous winners — the probing/NACK layer must still
	// keep the final set feasible (this is exactly what it is for).
	pr := paperProblem(t, 150, 7)
	s, err := Run(pr, Config{Seed: 3, RadioRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	if v := sched.Verify(pr, s); len(v) != 0 {
		t.Errorf("short-range run infeasible: %d violations", len(v))
	}
}

func TestRunCycleBudget(t *testing.T) {
	pr := paperProblem(t, 100, 11)
	short, err := Run(pr, Config{Seed: 2, Cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Run(pr, Config{Seed: 2, Cycles: 32})
	if err != nil {
		t.Fatal(err)
	}
	if short.Len() > long.Len() {
		t.Errorf("1 cycle scheduled %d > %d of 32 cycles", short.Len(), long.Len())
	}
	if !sched.Feasible(pr, short) || !sched.Feasible(pr, long) {
		t.Error("cycle-limited runs infeasible")
	}
}

func TestRunUnderNoise(t *testing.T) {
	ls, err := network.Generate(network.PaperConfig(120), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := radio.DefaultParams()
	p.N0 = 3e-7
	pr := sched.MustNewProblem(ls, p)
	s, err := Run(pr, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if v := sched.Verify(pr, s); len(v) != 0 {
		t.Errorf("noisy run infeasible: %v", v[0])
	}
}

func BenchmarkRun150(b *testing.B) {
	pr := paperProblem(b, 150, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(pr, Config{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunDetailedStats(t *testing.T) {
	pr := paperProblem(t, 120, 3)
	s, st, err := RunDetailed(pr, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != s.Len() {
		t.Errorf("stats.Active %d != schedule size %d", st.Active, s.Len())
	}
	if st.Active+st.GaveUp+st.Undecided != pr.N() {
		t.Errorf("state partition %d+%d+%d != %d",
			st.Active, st.GaveUp, st.Undecided, pr.N())
	}
	if st.Rounds <= 0 || st.Rounds > 24*4 {
		t.Errorf("rounds = %d", st.Rounds)
	}
	if st.Delivered == 0 {
		t.Error("no messages delivered")
	}
	// Communication overhead sanity: a broadcast protocol on N nodes
	// runs in O(N²) messages per round at worst.
	if st.Delivered > int64(st.Rounds)*int64(pr.N())*int64(pr.N()) {
		t.Errorf("delivered %d messages exceeds N²·rounds", st.Delivered)
	}
}

func TestRunDetailedMessageGrowth(t *testing.T) {
	_, small, err := RunDetailed(paperProblem(t, 50, 5), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, big, err := RunDetailed(paperProblem(t, 200, 5), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.Delivered <= small.Delivered {
		t.Errorf("messages did not grow with N: %d vs %d", small.Delivered, big.Delivered)
	}
}

func TestRunDetailedEmptyStats(t *testing.T) {
	pr := sched.MustNewProblem(network.MustNewLinkSet(nil), radio.DefaultParams())
	_, st, err := RunDetailed(pr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st != (Stats{}) {
		t.Errorf("empty instance stats = %+v", st)
	}
}
