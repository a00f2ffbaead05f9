package mobility

import (
	"context"
	"testing"

	"repro/internal/sched"
)

// TestEditorMoveToSamePosition: a move that "repositions" a link onto
// its current coordinates is still a valid event — the patched row and
// column recompute to the same values, the schedule cannot change, and
// the differential oracle still holds. This pins Rebind's behavior on
// zero displacement (no special-casing, no drift).
func TestEditorMoveToSamePosition(t *testing.T) {
	ed := editorFixture(t, 12, 21)
	links := ed.Links()
	before := ed.Prepared().Schedule(sched.Greedy{})
	factorBefore := ed.Prepared().Problem().Factor(3, 7)

	s, r := links[3].Sender, links[3].Receiver
	if err := ed.Move(3, &s, &r); err != nil {
		t.Fatalf("move to same position rejected: %v", err)
	}
	if ed.Rebinds() != 1 {
		t.Fatalf("rebinds = %d, want 1 (zero displacement is still a rebind)", ed.Rebinds())
	}
	if got := ed.Prepared().Problem().Factor(3, 7); got != factorBefore {
		t.Fatalf("Factor(3,7) drifted on a zero-displacement rebind: %v → %v", factorBefore, got)
	}
	after := ed.Prepared().Schedule(sched.Greedy{})
	if !after.Equal(before) {
		t.Fatalf("schedule changed on zero displacement: %v → %v", before, after)
	}
	assertEditorMatchesFresh(t, ed)
}

// TestRebindThenDeriveSiblings pins the supported ordering of the
// Derive-vs-Rebind exclusion: siblings derived AFTER a rebind read the
// patched field correctly (ε never enters the stored factors), for
// every rebind in an interleaved sequence. Siblings must be re-derived
// per generation — a pre-rebind sibling keeps its stale link set, which
// is exactly why Editor.Retune drops the old handle.
func TestRebindThenDeriveSiblings(t *testing.T) {
	tr, pr := trackerFixture(t, 30)
	tk, err := NewTracker(tr, pr, 0)
	if err != nil {
		t.Fatal(err)
	}
	prep := tk.Prepared()
	for step := 0; step < 4; step++ {
		if _, err := tk.Advance(2); err != nil {
			t.Fatal(err)
		}
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.05, 0.1, 0.3} {
			p := pr.Params
			p.Eps = eps
			sib, err := prep.Derive(p)
			if err != nil {
				t.Fatalf("step %d eps %v: %v", step, eps, err)
			}
			fresh, err := sched.NewProblem(snap, p)
			if err != nil {
				t.Fatal(err)
			}
			got := sib.Schedule(sched.Greedy{})
			want := sched.Run(sched.Greedy{}, fresh)
			if !got.Equal(want) {
				t.Fatalf("step %d eps %v: derived-after-rebind %v ≠ fresh %v", step, eps, got, want)
			}
		}
	}
}

// TestTrackerInterleavedRebindSolve alternates Advance with
// buffer-recycled solves on one handle — the replanning loop a session
// runs — and checks every solve against a fresh problem. It also pins
// the zero-alloc property of the steady-state solve path under
// interleaved rebinds (the geometry caches refresh, the buffers don't
// churn).
func TestTrackerInterleavedRebindSolve(t *testing.T) {
	tr, pr := trackerFixture(t, 50)
	tk, err := NewTracker(tr, pr, 0)
	if err != nil {
		t.Fatal(err)
	}
	prep := tk.Prepared()
	ctx := context.Background()
	var active []int
	for step := 0; step < 8; step++ {
		if _, err := tk.Advance(1); err != nil {
			t.Fatal(err)
		}
		sch, err := prep.ScheduleInto(ctx, sched.Greedy{}, active)
		if err != nil {
			t.Fatal(err)
		}
		active = sch.Active

		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sched.NewProblem(snap, pr.Params)
		if err != nil {
			t.Fatal(err)
		}
		if want := sched.Run(sched.Greedy{}, fresh); !sch.Equal(want) {
			t.Fatalf("step %d: interleaved %v ≠ fresh %v", step, sch, want)
		}
	}

	// Steady state reached: further advance+solve rounds must not
	// allocate on the solve side. (Advance itself allocates its moved
	// index list; measure only the solve.)
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	if _, err := tk.Advance(1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		sch, err := prep.ScheduleInto(ctx, sched.Greedy{}, active)
		if err != nil {
			t.Fatal(err)
		}
		active = sch.Active
	})
	if allocs > 0 {
		t.Fatalf("steady-state solve allocated %.1f times per run after rebinds", allocs)
	}
}
