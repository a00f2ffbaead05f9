package sched

// Randomized property tests over small generated instances. These
// complement the targeted unit tests with breadth: every property here
// must hold for ANY instance the generator can produce.

import (
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
)

// quickProblem derives a small random problem from a quick-generated
// seed, varying N, density, α, rates — and, on some draws, ambient
// noise, heterogeneous per-link powers, and log-uniform lengths, so
// the properties below cover the extensions too.
func quickProblem(seed uint64) *Problem {
	src := rng.Stream(seed, "prop", 0)
	cfg := network.PaperConfig(4 + src.IntN(40))
	cfg.Region = 80 + src.Float64()*500
	if src.IntN(2) == 1 {
		cfg.RateMax = 1 + src.Float64()*9
	}
	if src.IntN(3) == 0 {
		cfg.MaxLinkLen = cfg.MinLinkLen * (2 + src.Float64()*30)
		cfg.LogUniformLen = true
	}
	params := radio.DefaultParams()
	params.Alpha = 2.2 + src.Float64()*2.5
	if src.IntN(3) == 0 {
		params.N0 = src.Float64() * 2e-7
	}
	ls, err := network.Generate(cfg, seed, 1)
	if err != nil {
		panic(err)
	}
	if src.IntN(3) == 0 {
		links := ls.Links()
		for i := range links {
			links[i].Power = 0.5 + src.Float64()*4
		}
		ls = network.MustNewLinkSet(links)
	}
	return MustNewProblem(ls, params)
}

func TestPropertyFadingSchedulesFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		pr := quickProblem(seed)
		for _, a := range []Algorithm{LDP{}, RLE{}, Greedy{}, DLS{Seed: seed}} {
			if !Feasible(pr, Run(a, pr)) {
				t.Logf("seed %d: %s infeasible", seed, a.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyScheduleIndicesInRange(t *testing.T) {
	f := func(seed uint64) bool {
		pr := quickProblem(seed)
		for _, a := range []Algorithm{LDP{}, RLE{}, Greedy{}, ApproxLogN{}, ApproxDiversity{}} {
			s := Run(a, pr)
			prev := -1
			for _, i := range s.Active {
				if i < 0 || i >= pr.N() || i <= prev {
					return false // out of range, duplicate, or unsorted
				}
				prev = i
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFeasibilityDownwardClosed pins the structural fact every
// pruning argument relies on: any subset of a feasible schedule is
// feasible.
func TestPropertyFeasibilityDownwardClosed(t *testing.T) {
	f := func(seed uint64, mask uint32) bool {
		pr := quickProblem(seed)
		s := Run(Greedy{}, pr)
		if !Feasible(pr, s) {
			return false
		}
		var sub []int
		for k, i := range s.Active {
			if mask&(1<<(k%32)) != 0 {
				sub = append(sub, i)
			}
		}
		return Feasible(pr, NewSchedule("sub", sub))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertySupersetInterferenceMonotone: adding a sender never
// lowers any receiver's interference.
func TestPropertySupersetInterferenceMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		pr := quickProblem(seed)
		if pr.N() < 3 {
			return true
		}
		src := rng.Stream(seed, "prop-mono", 0)
		j := src.IntN(pr.N())
		var set []int
		for i := 0; i < pr.N(); i++ {
			if i != j && src.IntN(2) == 1 {
				set = append(set, i)
			}
		}
		base := pr.InterferenceOn(j, set)
		extra := src.IntN(pr.N())
		grown := pr.InterferenceOn(j, append(append([]int{}, set...), extra))
		return grown >= base-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRepairAlwaysFeasibleSubset(t *testing.T) {
	f := func(seed uint64) bool {
		pr := quickProblem(seed)
		all := make([]int, pr.N())
		for i := range all {
			all[i] = i
		}
		raw := NewSchedule("all", all)
		fixed := Repair(pr, raw)
		if !Feasible(pr, fixed) {
			return false
		}
		for _, i := range fixed.Active {
			if !raw.Contains(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyILPAgreesOnAlgorithmOutputs(t *testing.T) {
	f := func(seed uint64) bool {
		pr := quickProblem(seed)
		ilp := BuildILP(pr)
		for _, a := range []Algorithm{RLE{}, Greedy{}, ApproxDiversity{}} {
			s := Run(a, pr)
			x := make([]bool, pr.N())
			for _, i := range s.Active {
				x[i] = true
			}
			if ilp.FeasibleAssignment(x) != Feasible(pr, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExpectedFailuresBounds(t *testing.T) {
	// 0 ≤ E[failures] ≤ |schedule|, and ≤ ε·|schedule| for feasible
	// schedules.
	f := func(seed uint64) bool {
		pr := quickProblem(seed)
		for _, a := range []Algorithm{RLE{}, ApproxDiversity{}} {
			s := Run(a, pr)
			ef := ExpectedFailures(pr, s)
			if ef < 0 || ef > float64(s.Len()) {
				return false
			}
			if Feasible(pr, s) && ef > pr.Params.Eps*float64(s.Len())+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyVerifyMatchesSuccessProbabilities(t *testing.T) {
	// A schedule is feasible iff every per-link success probability is
	// ≥ 1−ε (up to the knife edge).
	f := func(seed uint64) bool {
		pr := quickProblem(seed)
		s := Run(ApproxDiversity{}, pr)
		probs := SuccessProbabilities(pr, s)
		viol := map[int]bool{}
		for _, v := range Verify(pr, s) {
			viol[v.Link] = true
		}
		for k, j := range s.Active {
			pOK := probs[k] >= 1-pr.Params.Eps
			if probs[k] > 1-pr.Params.Eps-1e-9 && probs[k] < 1-pr.Params.Eps+1e-9 {
				continue // knife edge
			}
			if pOK == viol[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
