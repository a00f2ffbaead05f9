package fadingrls_test

import (
	"math"
	"testing"

	fadingrls "repro"
)

func TestQuickstartFlow(t *testing.T) {
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(120), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := fadingrls.Run(fadingrls.RLE{}, pr)
	if s.Len() == 0 {
		t.Fatal("RLE scheduled nothing")
	}
	if !fadingrls.Feasible(pr, s) {
		t.Fatal("RLE schedule infeasible through the public API")
	}
	if got := s.Throughput(pr); got != float64(s.Len()) {
		t.Errorf("unit-rate throughput %v != link count %d", got, s.Len())
	}
	probs := fadingrls.SuccessProbabilities(pr, s)
	for _, p := range probs {
		if p < 1-fadingrls.DefaultParams().Eps-1e-9 {
			t.Errorf("scheduled link success %v below 1−ε", p)
		}
	}
	if ef := fadingrls.ExpectedFailures(pr, s); ef > float64(s.Len())*0.011 {
		t.Errorf("expected failures %v too high", ef)
	}
}

func TestSolveByName(t *testing.T) {
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(60), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	names := fadingrls.Algorithms()
	if len(names) < 7 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, name := range names {
		if name == "exact" {
			continue // N=60 exceeds the exact solver's cap
		}
		s, err := fadingrls.Solve(name, pr)
		if err != nil {
			t.Errorf("Solve(%q): %v", name, err)
			continue
		}
		if s.Algorithm == "" {
			t.Errorf("Solve(%q) returned unlabeled schedule", name)
		}
	}
	if _, err := fadingrls.Solve("bogus", pr); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSimulateThroughAPI(t *testing.T) {
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(100), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := fadingrls.Run(fadingrls.ApproxDiversity{}, pr)
	res, err := fadingrls.Simulate(pr, s, fadingrls.SimConfig{Slots: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures.N() != 200 {
		t.Errorf("slots recorded = %d", res.Failures.N())
	}
	if res.Failures.Mean() <= 0 {
		t.Error("overpacking baseline showed no failures — channel model broken?")
	}
	if math.Abs(res.Failures.Mean()-res.Expected) > 5*res.Failures.StdErr()+0.2 {
		t.Errorf("MC %v vs analytic %v disagree", res.Failures.Mean(), res.Expected)
	}
}

func TestExperimentsThroughAPI(t *testing.T) {
	specs := fadingrls.Experiments()
	spec, ok := specs["fig6a"]
	if !ok {
		t.Fatal("fig6a spec missing")
	}
	spec.Xs = []float64{100}
	tab, err := fadingrls.RunExperiment(spec, fadingrls.ExperimentOptions{Seed: 1, Instances: 3, Slots: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Order) < 2 {
		t.Errorf("fig6a has %d series", len(tab.Order))
	}
}

func TestBuildILPThroughAPI(t *testing.T) {
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(10), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ilp := fadingrls.BuildILP(pr)
	if len(ilp.Rates) != 10 || ilp.Field == nil || ilp.Field.N() != 10 {
		t.Errorf("ILP dims wrong: %d rates, field %v", len(ilp.Rates), ilp.Field)
	}
	if ilp.Coeff(0, 1) <= 0 {
		t.Error("ILP coefficient read-through broken: Coeff(0,1) not positive")
	}
	if ilp.M <= ilp.GammaEps {
		t.Error("big-M not dominating")
	}
}

func TestExplicitLinkSetThroughAPI(t *testing.T) {
	links := []fadingrls.Link{
		{Sender: fadingrls.Point{X: 0, Y: 0}, Receiver: fadingrls.Point{X: 12, Y: 0}, Rate: 1},
		{Sender: fadingrls.Point{X: 300, Y: 300}, Receiver: fadingrls.Point{X: 310, Y: 300}, Rate: 2},
	}
	ls, err := fadingrls.NewLinkSet(links)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := fadingrls.Run(fadingrls.Exact{}, pr)
	if s.Len() != 2 {
		t.Errorf("exact scheduled %d of 2 independent links", s.Len())
	}
}
