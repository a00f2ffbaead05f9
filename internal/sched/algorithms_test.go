package sched

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/radio"
)

// fadingAlgorithms are the schedulers whose output must satisfy the
// Rayleigh feasibility condition by construction.
func fadingAlgorithms() []Algorithm {
	return []Algorithm{LDP{}, LDP{Banded: true}, RLE{}, RLE{C2: 0.25}, RLE{C2: 0.75}, Greedy{}, DLS{Seed: 7}}
}

// TestFadingAlgorithmsAlwaysFeasible is the load-bearing invariant of
// the whole reproduction: across deployments, densities, and path-loss
// exponents, every fading-aware scheduler emits schedules that pass the
// independent Corollary 3.1 verifier (Theorems 4.1 and 4.3 made
// executable).
func TestFadingAlgorithmsAlwaysFeasible(t *testing.T) {
	alphas := []float64{2.5, 3, 4, 4.5}
	sizes := []int{10, 60, 150}
	for _, alpha := range alphas {
		for _, n := range sizes {
			for seed := uint64(1); seed <= 3; seed++ {
				params := radio.DefaultParams()
				params.Alpha = alpha
				ls, err := network.Generate(network.PaperConfig(n), seed, 0)
				if err != nil {
					t.Fatal(err)
				}
				pr := MustNewProblem(ls, params)
				for _, a := range fadingAlgorithms() {
					s := Run(a, pr)
					if v := Verify(pr, s); len(v) != 0 {
						t.Errorf("α=%v n=%d seed=%d %s: %d violations, first: %v",
							alpha, n, seed, a.Name(), len(v), v[0])
					}
				}
			}
		}
	}
}

func TestFadingAlgorithmsFeasibleOnClustered(t *testing.T) {
	cfg := network.PaperConfig(120)
	cfg.Clusters, cfg.ClusterSpread = 4, 10
	ls, err := network.Generate(cfg, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := MustNewProblem(ls, radio.DefaultParams())
	for _, a := range fadingAlgorithms() {
		s := Run(a, pr)
		if !Feasible(pr, s) {
			t.Errorf("%s infeasible on clustered deployment", a.Name())
		}
	}
}

func TestAlgorithmsNonEmptyAndDeterministic(t *testing.T) {
	pr := paperProblem(t, 80, 9)
	algos := append(fadingAlgorithms(), ApproxLogN{}, ApproxDiversity{})
	for _, a := range algos {
		s1 := Run(a, pr)
		if s1.Len() == 0 {
			t.Errorf("%s scheduled nothing on a feasible instance", a.Name())
		}
		s2 := Run(a, pr)
		if s1.Len() != s2.Len() {
			t.Errorf("%s nondeterministic: %d vs %d links", a.Name(), s1.Len(), s2.Len())
			continue
		}
		for k := range s1.Active {
			if s1.Active[k] != s2.Active[k] {
				t.Errorf("%s nondeterministic at position %d", a.Name(), k)
				break
			}
		}
	}
}

func TestAlgorithmsOnSingleLink(t *testing.T) {
	pr := sparseProblem(t, 1)
	algos := append(fadingAlgorithms(), ApproxLogN{}, ApproxDiversity{}, Exact{})
	for _, a := range algos {
		s := Run(a, pr)
		if s.Len() != 1 || s.Active[0] != 0 {
			t.Errorf("%s on single link: %v", a.Name(), s.Active)
		}
	}
}

func TestAlgorithmsOnEmptyInstance(t *testing.T) {
	pr := MustNewProblem(network.MustNewLinkSet(nil), radio.DefaultParams())
	algos := append(fadingAlgorithms(), ApproxLogN{}, ApproxDiversity{}, Exact{})
	for _, a := range algos {
		if s := Run(a, pr); s.Len() != 0 {
			t.Errorf("%s scheduled %d links on empty instance", a.Name(), s.Len())
		}
	}
}

func TestAllAlgorithmsScheduleAllWhenSparse(t *testing.T) {
	// Links 100 km apart: everything is simultaneously feasible and
	// every scheduler (even the conservative grid ones) must find the
	// full set… except LDP variants, which can drop links that share a
	// same-color square boundary — so require ≥ half for those and the
	// full set for elimination-based ones.
	pr := sparseProblem(t, 6)
	full := []Algorithm{RLE{}, Greedy{}, Exact{}, ApproxDiversity{}, DLS{Seed: 3}}
	for _, a := range full {
		if s := Run(a, pr); s.Len() != 6 {
			t.Errorf("%s scheduled %d of 6 independent links", a.Name(), s.Len())
		}
	}
	for _, a := range []Algorithm{LDP{}, ApproxLogN{}} {
		if s := Run(a, pr); s.Len() < 3 {
			t.Errorf("%s scheduled only %d of 6 independent links", a.Name(), s.Len())
		}
	}
}

func TestRLEContainsGlobalShortestLink(t *testing.T) {
	// RLE's first pick is by definition the shortest link; nothing can
	// eliminate it beforehand.
	for seed := uint64(1); seed <= 5; seed++ {
		pr := paperProblem(t, 100, seed)
		shortest := 0
		for i := 1; i < pr.N(); i++ {
			if pr.Links.Length(i) < pr.Links.Length(shortest) {
				shortest = i
			}
		}
		if s := Run(RLE{}, pr); !s.Contains(shortest) {
			t.Errorf("seed %d: RLE schedule misses the shortest link %d", seed, shortest)
		}
	}
}

func TestRLEC2Tradeoff(t *testing.T) {
	// c₂ near 0: tiny accumulation budget (rule 2 kills candidates) but
	// small radius; c₂ near 1: generous accumulation, huge radius. Both
	// must stay feasible; the default should do no worse than the
	// extremes on average.
	var sumLo, sumMid, sumHi float64
	const trials = 5
	for seed := uint64(1); seed <= trials; seed++ {
		pr := paperProblem(t, 150, seed)
		lo := Run(RLE{C2: 0.1}, pr)
		mid := Run(RLE{}, pr)
		hi := Run(RLE{C2: 0.9}, pr)
		for _, s := range []Schedule{lo, mid, hi} {
			if !Feasible(pr, s) {
				t.Fatalf("seed %d: %s infeasible", seed, s.Algorithm)
			}
		}
		sumLo += lo.Throughput(pr)
		sumMid += mid.Throughput(pr)
		sumHi += hi.Throughput(pr)
	}
	if sumMid < 0.5*math.Max(sumLo, sumHi) {
		t.Errorf("default c₂ collapses: lo=%v mid=%v hi=%v", sumLo, sumMid, sumHi)
	}
}

func TestLDPPicksHeaviestReceiverPerSquare(t *testing.T) {
	// Two links with the same receiver square, one with triple rate:
	// LDP must keep the heavy one.
	links := []network.Link{
		{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 10, Y: 0}, Rate: 1},
		{Sender: geom.Point{X: 0, Y: 5}, Receiver: geom.Point{X: 10, Y: 5}, Rate: 3},
	}
	pr := MustNewProblem(network.MustNewLinkSet(links), radio.DefaultParams())
	s := Run(LDP{}, pr)
	if !s.Contains(1) {
		t.Errorf("LDP dropped the rate-3 link: %v", s.Active)
	}
	if s.Contains(0) && s.Contains(1) {
		// Both would share a square (they are 5 apart, square side
		// ≈ 219); the same-color pick rule forbids both.
		t.Errorf("LDP scheduled two receivers from one square: %v", s.Active)
	}
}

func TestLDPNestedAtLeastAsGoodAsBanded(t *testing.T) {
	// The nested classes are supersets of the banded ones per class, so
	// the best nested candidate is at least the best banded candidate.
	for seed := uint64(1); seed <= 8; seed++ {
		pr := paperProblem(t, 200, seed)
		nested := Run(LDP{}, pr).Throughput(pr)
		banded := Run(LDP{Banded: true}, pr).Throughput(pr)
		if nested < banded {
			t.Errorf("seed %d: nested %v < banded %v", seed, nested, banded)
		}
	}
}

func TestBaselinesDeterministicallyFeasible(t *testing.T) {
	// The baselines ignore fading but must satisfy their own model:
	// every scheduled link passes the deterministic SINR check. This
	// pins down that their fading failures in Fig. 5 come from the
	// channel model, not from sloppy baseline implementations.
	for seed := uint64(1); seed <= 5; seed++ {
		pr := paperProblem(t, 150, seed)
		for _, a := range []Algorithm{ApproxLogN{}, ApproxDiversity{}} {
			s := Run(a, pr)
			for _, j := range s.Active {
				dijs := make([]float64, 0, s.Len()-1)
				for _, i := range s.Active {
					if i != j {
						dijs = append(dijs, pr.Links.Dist(i, j))
					}
				}
				if !pr.Params.DeterministicSuccess(pr.Links.Length(j), dijs) {
					t.Errorf("seed %d: %s link %d fails its own deterministic model",
						seed, a.Name(), j)
				}
			}
		}
	}
}

func TestBaselinesOverpackUnderFading(t *testing.T) {
	// The paper's Fig. 5 premise: on dense instances the deterministic
	// baselines schedule more links than the fading-aware algorithms
	// and at least one baseline schedule violates the fading budget.
	pr := paperProblem(t, 300, 42)
	rle := Run(RLE{}, pr)
	logn := Run(ApproxLogN{}, pr)
	div := Run(ApproxDiversity{}, pr)
	if div.Len() <= rle.Len() {
		t.Errorf("ApproxDiversity (%d) should out-pack RLE (%d)", div.Len(), rle.Len())
	}
	if Feasible(pr, logn) && Feasible(pr, div) {
		t.Error("both baselines fading-feasible on a dense instance — they would not fail in Fig. 5")
	}
}

func TestDLSSeedSensitivityAndDeterminism(t *testing.T) {
	pr := paperProblem(t, 120, 11)
	a := Run(DLS{Seed: 1}, pr)
	b := Run(DLS{Seed: 1}, pr)
	if a.String() != b.String() {
		t.Error("DLS not deterministic for fixed seed")
	}
	diff := false
	for seed := uint64(2); seed <= 6; seed++ {
		if Run(DLS{Seed: seed}, pr).String() != a.String() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("DLS identical across five seeds — priorities are not random")
	}
}

func TestDLSRespectsRoundLimit(t *testing.T) {
	pr := paperProblem(t, 80, 13)
	one := Run(DLS{Seed: 2, Rounds: 1}, pr)
	many := Run(DLS{Seed: 2, Rounds: 64}, pr)
	if !Feasible(pr, one) || !Feasible(pr, many) {
		t.Fatal("round-limited DLS infeasible")
	}
	if one.Len() > many.Len() {
		t.Errorf("1 round scheduled %d > %d links of 64 rounds", one.Len(), many.Len())
	}
}

func TestGreedyBeatsNothingButIsFeasible(t *testing.T) {
	// Greedy has no guarantee but on uniform-rate paper instances it is
	// typically the strongest heuristic; sanity-check it at least
	// matches RLE on average (it subsumes RLE's feasibility check with
	// a less conservative rule).
	var g, r float64
	for seed := uint64(1); seed <= 6; seed++ {
		pr := paperProblem(t, 150, seed)
		g += Run(Greedy{}, pr).Throughput(pr)
		r += Run(RLE{}, pr).Throughput(pr)
	}
	if g < r {
		t.Errorf("greedy total %v below RLE %v across seeds", g, r)
	}
}
