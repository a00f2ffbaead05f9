package mobility

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// TestEditorEventStreamMatchesColdSolve is the per-event session
// oracle on the dense fast path: a seeded stream of moves, adds,
// removes and retunes, re-solved after every event through the
// editor's warm handle (recycled result buffer, pooled scratch, cached
// median length and rule-1 index), must give exactly the schedule a
// cold PrepareContext over the editor's current links gives — for
// greedy and RLE. n is above the parallel-fill threshold, so the cold
// side runs the band-pair fill the splices must reproduce.
func TestEditorEventStreamMatchesColdSolve(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"greedy", "rle"} {
		t.Run(name, func(t *testing.T) {
			a, _ := sched.Lookup(name)
			ed := editorFixture(t, 220, 41)
			r := rng.New(7)
			var active []int
			for step := 0; step < 60; step++ {
				var err error
				switch k := r.IntN(10); {
				case k < 6:
					p := geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
					if k%2 == 0 {
						err = ed.Move(r.IntN(ed.N()), &p, nil)
					} else {
						err = ed.Move(r.IntN(ed.N()), nil, &p)
					}
				case k < 8:
					s := geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
					err = ed.Add(network.Link{Sender: s, Receiver: geom.Point{X: s.X + 2 + r.Float64()*15, Y: s.Y}, Rate: 1})
				case k < 9:
					err = ed.Remove(r.IntN(ed.N()))
				default:
					err = ed.Retune(0.005 + 0.05*r.Float64())
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				sch, err := ed.Prepared().ScheduleInto(ctx, a, active)
				if err != nil {
					t.Fatal(err)
				}
				active = sch.Active
				cold, err := sched.PrepareContext(ctx, network.MustNewLinkSet(ed.Links()), ed.Prepared().Problem().Params)
				if err != nil {
					t.Fatal(err)
				}
				if want := cold.Schedule(a); !sch.Equal(want) {
					t.Fatalf("step %d: warm %v ≠ cold %v", step, sch.Active, want.Active)
				}
			}
			if ed.Rebinds() == 0 || ed.Splices() == 0 || ed.Rebuilds() != 0 {
				t.Fatalf("stream exercised rebinds=%d splices=%d rebuilds=%d", ed.Rebinds(), ed.Splices(), ed.Rebuilds())
			}
		})
	}
}

// TestEditorMoveValidation: Move validates the moved link against the
// other n−1 links only, yet must reject exactly what NewLinkSet rejects
// on the full replaced list — duplicate senders and receivers on
// either side of the moved index, non-finite coordinates, zero length —
// with the identical error text, and leave the editor untouched.
func TestEditorMoveValidation(t *testing.T) {
	ed := editorFixture(t, 12, 29)
	links := ed.Links()
	prepBefore := ed.Prepared()
	rowBefore := make([]float64, ed.N())
	for j := range rowBefore {
		rowBefore[j] = ed.Prepared().Problem().Factor(5, j)
	}
	inf := math.Inf(1)
	cases := []struct {
		name     string
		sender   *geom.Point
		receiver *geom.Point
	}{
		{"duplicate sender below", &links[2].Sender, nil},
		{"duplicate sender above", &links[9].Sender, nil},
		{"duplicate receiver below", nil, &links[0].Receiver},
		{"duplicate receiver above", nil, &links[11].Receiver},
		{"sender above, receiver below", &links[8].Sender, &links[1].Receiver},
		{"receiver and sender above", &links[10].Sender, &links[7].Receiver},
		{"infinite sender", &geom.Point{X: inf, Y: 0}, nil},
		{"NaN receiver", nil, &geom.Point{X: 1, Y: math.NaN()}},
		{"zero length via sender", &links[5].Receiver, nil},
		{"zero length via receiver", nil, &links[5].Sender},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			next := ed.Links()
			if tc.sender != nil {
				next[5].Sender = *tc.sender
			}
			if tc.receiver != nil {
				next[5].Receiver = *tc.receiver
			}
			_, want := network.NewLinkSet(next)
			if want == nil {
				t.Fatal("case is valid geometry; fixture drifted")
			}
			err := ed.Move(5, tc.sender, tc.receiver)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("Move error %v, NewLinkSet error %q", err, want)
			}
			if ed.Prepared() != prepBefore || ed.Rebinds()+ed.Splices()+ed.Rebuilds() != 0 {
				t.Fatal("rejected move replaced the handle or advanced the counters")
			}
			if !slices.Equal(ed.Links(), links) {
				t.Fatal("rejected move changed the link list")
			}
			for j, v := range rowBefore {
				if ed.Prepared().Problem().Factor(5, j) != v {
					t.Fatalf("rejected move changed Factor(5,%d)", j)
				}
			}
		})
	}
}

// spanNames returns the names of tr's spans and the attributes of the
// first span named want.
func spanNames(tr *obs.Trace, want string) (map[string]bool, map[string]any) {
	names := map[string]bool{}
	var attrs map[string]any
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == want && attrs == nil {
			attrs = sp.Attrs
		}
		names[sp.Name] = true
	}
	return names, attrs
}

// TestEditorSpliceSpans: a dense add or remove is traced as a "splice"
// span with its cause and never as a rebuild — no field_build or
// dense_fill span anywhere in its trace — while the sparse backend
// still records a "rebuild" with the field build nested inside.
func TestEditorSpliceSpans(t *testing.T) {
	add := network.SessionEvent{Type: network.EventAdd, Add: &network.Link{
		Sender: geom.Point{X: 3, Y: 3}, Receiver: geom.Point{X: 9, Y: 3}, Rate: 1}}
	remove := network.SessionEvent{Type: network.EventRemove, Link: 2}
	for _, ev := range []network.SessionEvent{add, remove} {
		ed := editorFixture(t, 10, 3)
		tr := obs.NewTrace("0123456789abcdef", "event")
		if err := ed.ApplyContext(obs.ContextWithSpan(context.Background(), tr.Root()), &ev); err != nil {
			t.Fatal(err)
		}
		names, attrs := spanNames(tr, "splice")
		if attrs["cause"] != ev.Type {
			t.Fatalf("%s: splice span attrs %v, want cause %q", ev.Type, attrs, ev.Type)
		}
		for _, bad := range []string{"rebuild", "field_build", "dense_fill"} {
			if names[bad] {
				t.Fatalf("%s: dense trace holds a %q span: %v", ev.Type, bad, names)
			}
		}

		ed = editorFixture(t, 10, 3, sched.WithSparseField(sched.SparseOptions{}))
		tr = obs.NewTrace("0123456789abcdef", "event")
		if err := ed.ApplyContext(obs.ContextWithSpan(context.Background(), tr.Root()), &ev); err != nil {
			t.Fatal(err)
		}
		names, attrs = spanNames(tr, "rebuild")
		if attrs["cause"] != ev.Type || !names["field_build"] || names["splice"] {
			t.Fatalf("%s: sparse trace spans %v, rebuild attrs %v", ev.Type, names, attrs)
		}
	}
}

// TestEditorSpliceReleasesOldField: once an add or remove returns, the
// editor holds nothing that keeps the old matrix alive — two
// collections (the first only moves the old handle's pooled scratch to
// the victim cache) reclaim it.
func TestEditorSpliceReleasesOldField(t *testing.T) {
	ed := editorFixture(t, 40, 13)
	ed.Prepared().Schedule(sched.Greedy{}) // park a scratch that references the field
	old := weak.Make(ed.Prepared().Problem().Field().(*sched.DenseField))
	if err := ed.Remove(7); err != nil {
		t.Fatal(err)
	}
	ed.Prepared().Schedule(sched.Greedy{})
	runtime.GC()
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("the pre-splice dense field is still reachable")
	}
}
