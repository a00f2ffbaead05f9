package mobility

import (
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

func baseInstance(t testing.TB, n int) *network.LinkSet {
	t.Helper()
	ls, err := network.Generate(network.PaperConfig(n), 17, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func cfg() Config {
	return Config{Region: 500, SpeedMin: 1, SpeedMax: 10, Seed: 7}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Region: 500},
		{Region: 500, SpeedMin: 5, SpeedMax: 2},
		{Region: -1, SpeedMin: 1, SpeedMax: 2},
	}
	ls := baseInstance(t, 5)
	for i, c := range bad {
		if _, err := NewTrace(ls, c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestTraceStaysInRegionAndLengthsInvariant(t *testing.T) {
	ls := baseInstance(t, 60)
	tr, err := NewTrace(ls, cfg())
	if err != nil {
		t.Fatal(err)
	}
	wantLens := make([]float64, ls.Len())
	for i := range wantLens {
		wantLens[i] = ls.Length(i)
	}
	for step := 0; step < 20; step++ {
		tr.Advance(25)
		if !tr.InRegion() {
			t.Fatalf("step %d: sender left the region", step)
		}
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := range wantLens {
			if math.Abs(snap.Length(i)-wantLens[i]) > 1e-9 {
				t.Fatalf("step %d: link %d length drifted %v → %v",
					step, i, wantLens[i], snap.Length(i))
			}
		}
	}
	if tr.Epoch() != 500 {
		t.Errorf("epoch = %d, want 500", tr.Epoch())
	}
}

func TestSpeedBoundRespected(t *testing.T) {
	ls := baseInstance(t, 40)
	tr, err := NewTrace(ls, cfg())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		before := tr.Positions()
		tr.Advance(1)
		if got := MaxStep(before, tr.Positions()); got > 10+1e-9 {
			t.Fatalf("step %d: node moved %v > SpeedMax 10 in one slot", step, got)
		}
	}
}

func TestNodesActuallyMove(t *testing.T) {
	ls := baseInstance(t, 30)
	tr, err := NewTrace(ls, cfg())
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Positions()
	tr.Advance(10)
	moved := 0
	for i, p := range tr.Positions() {
		if p.Dist(before[i]) > 1 {
			moved++
		}
	}
	if moved < 25 {
		t.Errorf("only %d of 30 nodes moved after 10 slots", moved)
	}
}

func TestTraceDeterministic(t *testing.T) {
	ls := baseInstance(t, 25)
	a, err := NewTrace(ls, cfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTrace(ls, cfg())
	if err != nil {
		t.Fatal(err)
	}
	a.Advance(137)
	b.Advance(137)
	pa, pb := a.Positions(), b.Positions()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("traces diverged at node %d", i)
		}
	}
}

func TestAdvancePatternInvariance(t *testing.T) {
	// Advance(10) must equal ten Advance(1)s: state evolves in whole
	// slots regardless of call batching.
	ls := baseInstance(t, 20)
	a, _ := NewTrace(ls, cfg())
	b, _ := NewTrace(ls, cfg())
	a.Advance(10)
	for i := 0; i < 10; i++ {
		b.Advance(1)
	}
	pa, pb := a.Positions(), b.Positions()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("batched and stepped traces differ at node %d: %v vs %v", i, pa[i], pb[i])
		}
	}
}

// TestScheduleStalenessDegrades is the mobility experiment in miniature:
// a schedule computed at epoch 0 must lose feasibility (or at least
// accumulate expected failures) as the geometry churns, while
// rescheduling on the fresh snapshot stays clean.
func TestScheduleStalenessDegrades(t *testing.T) {
	ls := baseInstance(t, 200)
	tr, err := NewTrace(ls, cfg())
	if err != nil {
		t.Fatal(err)
	}
	params := radio.DefaultParams()
	pr0 := sched.MustNewProblem(ls, params)
	stale := sched.Run(sched.RLE{}, pr0)
	if !sched.Feasible(pr0, stale) {
		t.Fatal("fresh schedule infeasible")
	}
	freshEF, staleEF := 0.0, 0.0
	for step := 0; step < 10; step++ {
		tr.Advance(50)
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		prNow := sched.MustNewProblem(snap, params)
		staleEF += sched.ExpectedFailures(prNow, stale)
		fresh := sched.Run(sched.RLE{}, prNow)
		if !sched.Feasible(prNow, fresh) {
			t.Fatalf("step %d: rescheduling infeasible", step)
		}
		freshEF += sched.ExpectedFailures(prNow, fresh)
	}
	if staleEF <= freshEF {
		t.Errorf("stale schedule no worse than fresh (stale %v, fresh %v) — mobility has no effect?",
			staleEF, freshEF)
	}
}
