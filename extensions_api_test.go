package fadingrls_test

import (
	"bytes"
	"context"
	"testing"

	fadingrls "repro"
)

func TestMultiSlotPlanThroughAPI(t *testing.T) {
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(80), 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fadingrls.BuildMultiSlotPlan(pr, fadingrls.RLE{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fadingrls.ValidateMultiSlotPlan(pr, plan); err != nil {
		t.Fatal(err)
	}
	if plan.TotalScheduled() != 80 {
		t.Errorf("plan covers %d of 80 links", plan.TotalScheduled())
	}
	if plan.NumSlots() < 2 {
		t.Errorf("suspiciously few slots: %d", plan.NumSlots())
	}
}

func TestRunTrafficThroughAPI(t *testing.T) {
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(60), 22, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fadingrls.RunTraffic(pr, fadingrls.TrafficConfig{
		Slots: 120, Arrivals: fadingrls.BernoulliArrivals{P: 0.05}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 || res.Delivered == 0 {
		t.Errorf("traffic idle: %+v", res)
	}
	if res.Delivered+res.Dropped+res.Backlog != res.Arrived {
		t.Error("conservation violated through API")
	}
	// Weighted policy through the engine path on the same instance.
	prep := fadingrls.NewPrepared(pr)
	eng, err := fadingrls.NewTrafficEngine(prep, fadingrls.TrafficConfig{
		Slots: 60, Arrivals: fadingrls.PoissonArrivals{Lambda: 0.05},
		Policy: "maxqueue", Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	wres := eng.Run(context.Background())
	if wres.Policy != "maxqueue" || wres.Slots != 60 {
		t.Errorf("weighted run: policy=%q slots=%d", wres.Policy, wres.Slots)
	}
}

func TestRepairThroughAPI(t *testing.T) {
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(250), 23, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	raw := fadingrls.Run(fadingrls.ApproxDiversity{}, pr)
	fixed := fadingrls.Repair(pr, raw)
	if !fadingrls.Feasible(pr, fixed) {
		t.Error("repaired schedule infeasible")
	}
}

func TestNoiseAndPowerThroughAPI(t *testing.T) {
	params := fadingrls.DefaultParams()
	params.N0 = 1e-7
	links := []fadingrls.Link{
		{Sender: fadingrls.Point{X: 0, Y: 0}, Receiver: fadingrls.Point{X: 10, Y: 0}, Rate: 1, Power: 2},
		{Sender: fadingrls.Point{X: 120, Y: 0}, Receiver: fadingrls.Point{X: 120, Y: 10}, Rate: 1},
	}
	ls, err := fadingrls.NewLinkSet(links)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, params)
	if err != nil {
		t.Fatal(err)
	}
	s := fadingrls.Run(fadingrls.Exact{}, pr)
	if !fadingrls.Feasible(pr, s) {
		t.Error("exact schedule infeasible under noise+power")
	}
	res, err := fadingrls.Simulate(pr, s, fadingrls.SimConfig{Slots: 100, Seed: 2, CoherenceSlots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 100 {
		t.Errorf("slots = %d", res.Slots)
	}
}

func TestRemainingFacadeWrappers(t *testing.T) {
	// GenerateGrid.
	grid, err := fadingrls.GenerateGrid(3, 200, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Len() != 9 {
		t.Errorf("grid links = %d", grid.Len())
	}
	// ReadLinkSet round trip.
	var buf bytes.Buffer
	if err := grid.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := fadingrls.ReadLinkSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 9 {
		t.Errorf("round trip links = %d", back.Len())
	}
	// Knapsack wrappers.
	knap := fadingrls.KnapsackInstance{
		Items:    []fadingrls.KnapsackItem{{Value: 3, Weight: 2}, {Value: 5, Weight: 4}},
		Capacity: 4,
	}
	v, chosen, err := fadingrls.SolveKnapsack(knap)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 || len(chosen) != 1 || chosen[0] != 1 {
		t.Errorf("knapsack wrapper: v=%v chosen=%v", v, chosen)
	}
	red, err := fadingrls.ReduceKnapsack(knap, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if red.Links.Len() != 3 {
		t.Errorf("reduction links = %d", red.Links.Len())
	}
	// Aggregation wrappers.
	tree, err := fadingrls.BuildAggregationTree(
		[]fadingrls.Point{{X: 10, Y: 0}, {X: 30, Y: 0}}, fadingrls.Point{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fadingrls.Convergecast(tree, fadingrls.DefaultParams(), fadingrls.Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Latency < 1 {
		t.Errorf("latency = %d", cs.Latency)
	}
	// Mobility wrappers.
	tr, err := fadingrls.NewMobilityTrace(grid, fadingrls.MobilityConfig{
		Region: 600, SpeedMin: 1, SpeedMax: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Advance(10)
	if _, err := tr.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Quantile wrapper.
	if got := fadingrls.Quantile([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("Quantile = %v", got)
	}
	// Diversity/traffic/staleness table wrappers.
	opts := fadingrls.ExperimentOptions{Seed: 1, Instances: 1, Slots: 5}
	if _, err := fadingrls.RunDiversityTable(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := fadingrls.RunStalenessTable(opts); err != nil {
		t.Fatal(err)
	}
	// DLSProto through the registry.
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(40), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := fadingrls.Solve("dlsproto", pr)
	if err != nil {
		t.Fatal(err)
	}
	if !fadingrls.Feasible(pr, s) {
		t.Error("dlsproto schedule infeasible through facade")
	}
}

func TestSimulateAdaptiveThroughAPI(t *testing.T) {
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(120), 29, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := fadingrls.Run(fadingrls.ApproxDiversity{}, pr)
	res, err := fadingrls.SimulateAdaptive(pr, s, fadingrls.AdaptiveSimConfig{
		TargetCI: 0.2, BatchSlots: 50, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots == 0 || res.Failures.CI95() > 0.2 {
		t.Errorf("adaptive run: slots=%d ci=%v", res.Slots, res.Failures.CI95())
	}
}
