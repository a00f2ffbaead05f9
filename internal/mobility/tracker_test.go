package mobility

import (
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

func trackerFixture(t *testing.T, n int, opts ...sched.Option) (*Trace, *sched.Problem) {
	t.Helper()
	base, err := network.Generate(network.PaperConfig(n), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Region: 500, SpeedMin: 1, SpeedMax: 10, Seed: 9}
	tr, err := NewTrace(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sched.NewProblem(base, radio.DefaultParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pr
}

// TestTrackerMatchesFreshProblem is the tracker's core contract: after
// any Advance at tol = 0, the incrementally patched field is
// indistinguishable from a problem built from scratch on the current
// snapshot — same factors, same noise terms, same schedules.
func TestTrackerMatchesFreshProblem(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []sched.Option
	}{
		{"dense", nil},
		{"sparse", []sched.Option{sched.WithSparseField(sched.SparseOptions{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, pr := trackerFixture(t, 60, tc.opts...)
			tk, err := NewTracker(tr, pr, 0)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 5; step++ {
				moved, err := tk.Advance(3)
				if err != nil {
					t.Fatal(err)
				}
				if moved == 0 {
					t.Fatalf("step %d: no links re-bound despite movement", step)
				}
				snap, err := tr.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := sched.NewProblem(snap, pr.Params, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				got := tk.Problem()
				for j := 0; j < fresh.N(); j++ {
					if got.NoiseTerm(j) != fresh.NoiseTerm(j) {
						t.Fatalf("step %d: NoiseTerm(%d) = %v, fresh %v",
							step, j, got.NoiseTerm(j), fresh.NoiseTerm(j))
					}
					for i := 0; i < fresh.N(); i++ {
						if got.Factor(i, j) != fresh.Factor(i, j) {
							t.Fatalf("step %d: Factor(%d,%d) = %v, fresh %v",
								step, i, j, got.Factor(i, j), fresh.Factor(i, j))
						}
					}
				}
				gs := sched.Run(sched.Greedy{}, got)
				fs := sched.Run(sched.Greedy{}, fresh)
				if len(gs.Active) != len(fs.Active) {
					t.Fatalf("step %d: tracked schedule %d links, fresh %d",
						step, len(gs.Active), len(fs.Active))
				}
			}
		})
	}
}

// TestTrackerToleranceSkipsSmallDrift: with a tolerance larger than the
// displacement a few slots can produce, Advance must leave the field
// untouched — and once the drift accumulates past the tolerance, the
// moved links must be patched.
func TestTrackerToleranceSkipsSmallDrift(t *testing.T) {
	tr, pr := trackerFixture(t, 40)
	tol := tr.MaxDisplacement(2) // two slots can never exceed this
	tk, err := NewTracker(tr, pr, tol)
	if err != nil {
		t.Fatal(err)
	}
	if moved, err := tk.Advance(1); err != nil || moved != 0 {
		t.Fatalf("Advance(1) under tolerance: moved %d, err %v — want 0, nil", moved, err)
	}
	total := 0
	for step := 0; step < 50 && total == 0; step++ {
		moved, err := tk.Advance(1)
		if err != nil {
			t.Fatal(err)
		}
		total += moved
	}
	if total == 0 {
		t.Fatal("50 slots of drift never crossed the tolerance")
	}
}

// TestTrackerRejectsMismatch pins the constructor's validation.
func TestTrackerRejectsMismatch(t *testing.T) {
	tr, pr := trackerFixture(t, 20)
	if _, err := NewTracker(tr, pr, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
	other, err := network.Generate(network.PaperConfig(21), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrong := sched.MustNewProblem(other, radio.DefaultParams())
	if _, err := NewTracker(tr, wrong, 0); err == nil {
		t.Error("link-count mismatch accepted")
	}
}

// TestTrackerPreparedMatchesFresh checks the Prepared handle stays
// coherent across Advance: Rebind bumps the problem generation, so the
// handle's cached geometry (sender index, median length) refreshes and
// every post-move solve matches a fresh problem built from the current
// snapshot. The handle is fetched once and reused — the cheap path a
// re-planning loop would use.
func TestTrackerPreparedMatchesFresh(t *testing.T) {
	tr, pr := trackerFixture(t, 60)
	tk, err := NewTracker(tr, pr, 0)
	if err != nil {
		t.Fatal(err)
	}
	prep := tk.Prepared()
	if prep != tk.Prepared() {
		t.Fatal("Prepared() not cached across calls")
	}
	algos := []sched.Algorithm{sched.Greedy{}, sched.RLE{}}
	for step := 0; step < 4; step++ {
		if _, err := tk.Advance(5); err != nil {
			t.Fatal(err)
		}
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sched.NewProblem(snap, pr.Params)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range algos {
			got := prep.Schedule(a)
			want := sched.Run(a, fresh)
			if !got.Equal(want) {
				t.Fatalf("step %d %s: tracked %v ≠ fresh %v", step, a.Name(), got, want)
			}
		}
	}
}
