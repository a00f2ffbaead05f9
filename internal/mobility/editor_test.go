package mobility

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
)

func editorFixture(t *testing.T, n int, seed uint64, opts ...sched.Option) *Editor {
	t.Helper()
	ls, err := network.Generate(network.PaperConfig(n), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sched.Prepare(ls, radio.DefaultParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var opt sched.Option
	if len(opts) > 0 {
		opt = opts[0]
	}
	return NewEditor(prep, opt)
}

// assertEditorMatchesFresh is the Editor's core oracle: after any event
// sequence, the incrementally maintained handle must be byte-for-byte
// equivalent to a problem prepared from scratch on the editor's own
// link list — same factors, same noise, same schedules for every
// registered algorithm that accepts the instance size.
func assertEditorMatchesFresh(t *testing.T, ed *Editor, opts ...sched.Option) {
	t.Helper()
	ls, err := network.NewLinkSet(ed.Links())
	if err != nil {
		t.Fatal(err)
	}
	got := ed.Prepared().Problem()
	fresh, err := sched.NewProblem(ls, got.Params, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < fresh.N(); j++ {
		if got.NoiseTerm(j) != fresh.NoiseTerm(j) {
			t.Fatalf("NoiseTerm(%d) = %v, fresh %v", j, got.NoiseTerm(j), fresh.NoiseTerm(j))
		}
		for i := 0; i < fresh.N(); i++ {
			if got.Factor(i, j) != fresh.Factor(i, j) {
				t.Fatalf("Factor(%d,%d) = %v, fresh %v", i, j, got.Factor(i, j), fresh.Factor(i, j))
			}
		}
	}
	for _, name := range sched.Names() {
		if name == "exact" && fresh.N() > sched.DefaultExactMaxN {
			continue
		}
		a, _ := sched.Lookup(name)
		want := sched.Run(a, fresh)
		have := ed.Prepared().Schedule(a)
		if !have.Equal(want) {
			t.Fatalf("%s: editor %v ≠ fresh %v", name, have, want)
		}
	}
}

// TestEditorMatchesFresh drives a deterministic mixed event sequence —
// moves, adds, removes, retunes — on both field backends and checks the
// differential oracle after every single event.
func TestEditorMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    []sched.Option
		patches bool // moves rebind and add/remove splice instead of rebuilding
	}{
		{"dense", nil, true},
		{"sparse", []sched.Option{sched.WithSparseField(sched.SparseOptions{})}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ed := editorFixture(t, 14, 3, tc.opts...)
			r := rng.New(99)
			for step := 0; step < 40; step++ {
				var err error
				switch step % 5 {
				case 0, 1, 3: // moves dominate, as they would in practice
					i := r.IntN(ed.N())
					p := geom.Point{X: r.Float64() * 500, Y: r.Float64() * 500}
					if step%2 == 0 {
						err = ed.Move(i, &p, nil)
					} else {
						err = ed.Move(i, nil, &p)
					}
				case 2:
					s := geom.Point{X: r.Float64() * 500, Y: r.Float64() * 500}
					d := geom.Point{X: s.X + 1 + r.Float64()*20, Y: s.Y}
					err = ed.Add(network.Link{Sender: s, Receiver: d, Rate: 1, Power: 1})
				case 4:
					if ed.N() > 8 {
						err = ed.Remove(r.IntN(ed.N()))
					} else {
						err = ed.Retune(0.05 + 0.1*r.Float64())
					}
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				assertEditorMatchesFresh(t, ed, tc.opts...)
			}
			// Dense moves rebind and dense adds/removes splice; every
			// geometry event on the sparse backend is a rebuild.
			if (ed.Rebinds() > 0) != tc.patches || (ed.Splices() > 0) != tc.patches || (ed.Rebuilds() > 0) == tc.patches {
				t.Fatalf("sequence exercised rebinds=%d splices=%d rebuilds=%d (patching backend: %v)",
					ed.Rebinds(), ed.Splices(), ed.Rebuilds(), tc.patches)
			}
		})
	}
}

// TestEditorMoveIsIncremental pins the dense cost model: moves must go
// through Rebind, add/remove must splice — neither ever rebuilds.
func TestEditorMoveIsIncremental(t *testing.T) {
	ed := editorFixture(t, 10, 7)
	before := ed.Prepared()
	p := geom.Point{X: 42, Y: 17}
	if err := ed.Move(3, &p, nil); err != nil {
		t.Fatal(err)
	}
	if ed.Rebinds() != 1 || ed.Splices() != 0 || ed.Rebuilds() != 0 {
		t.Fatalf("move: rebinds=%d splices=%d rebuilds=%d", ed.Rebinds(), ed.Splices(), ed.Rebuilds())
	}
	if ed.Prepared() != before {
		t.Fatal("move replaced the prepared handle; it must patch in place")
	}
	if err := ed.Add(network.Link{Sender: geom.Point{X: 1, Y: 1}, Receiver: geom.Point{X: 2, Y: 1}, Rate: 1, Power: 1}); err != nil {
		t.Fatal(err)
	}
	if ed.Splices() != 1 || ed.Rebuilds() != 0 {
		t.Fatalf("add: splices=%d rebuilds=%d, want 1 and 0", ed.Splices(), ed.Rebuilds())
	}
	if ed.Prepared() == before {
		t.Fatal("add kept the old handle despite a changed link count")
	}
	if err := ed.Remove(ed.N() - 1); err != nil {
		t.Fatal(err)
	}
	if ed.Splices() != 2 || ed.Rebuilds() != 0 {
		t.Fatalf("remove: splices=%d rebuilds=%d, want 2 and 0", ed.Splices(), ed.Rebuilds())
	}
}

// TestEditorRejectedEventLeavesStateUntouched checks the all-or-nothing
// contract: an event that fails validation (bad index, degenerate
// geometry, colliding endpoints) must leave links, field, and counters
// exactly as they were.
func TestEditorRejectedEventLeavesStateUntouched(t *testing.T) {
	ed := editorFixture(t, 8, 11)
	linksBefore := ed.Links()
	prepBefore := ed.Prepared()
	genBefore := ed.Rebinds() + ed.Splices() + ed.Rebuilds()

	occupied := linksBefore[0].Sender // colliding with another sender is invalid
	cases := []struct {
		name    string
		apply   func() error
		wantErr string
	}{
		{"move out of range", func() error { return ed.Move(8, &geom.Point{X: 1, Y: 1}, nil) }, "out of range"},
		{"move negative", func() error { return ed.Move(-1, &geom.Point{X: 1, Y: 1}, nil) }, "out of range"},
		{"move without endpoints", func() error { return ed.Move(0, nil, nil) }, "sender and/or receiver"},
		{"move onto occupied position", func() error { return ed.Move(3, &occupied, nil) }, "share sender"},
		{"move to NaN", func() error { return ed.Move(0, &geom.Point{X: math.NaN(), Y: 0}, nil) }, "finite"},
		{"move onto own receiver", func() error {
			rcv := linksBefore[2].Receiver
			return ed.Move(2, &rcv, nil)
		}, "zero-length"},
		{"add zero-length", func() error {
			return ed.Add(network.Link{Sender: geom.Point{X: 9, Y: 9}, Receiver: geom.Point{X: 9, Y: 9}, Rate: 1, Power: 1})
		}, "zero-length"},
		{"remove out of range", func() error { return ed.Remove(99) }, "out of range"},
		{"retune out of range", func() error { return ed.Retune(1.5) }, "eps"},
		{"unknown event type", func() error {
			return ed.Apply(&network.SessionEvent{Type: "teleport"})
		}, "unknown event"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.apply()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if ed.Prepared() != prepBefore {
				t.Fatal("rejected event replaced the prepared handle")
			}
			if ed.Rebinds()+ed.Splices()+ed.Rebuilds() != genBefore {
				t.Fatal("rejected event advanced the mutation counters")
			}
			after := ed.Links()
			for i := range linksBefore {
				if after[i] != linksBefore[i] {
					t.Fatalf("rejected event changed link %d: %+v → %+v", i, linksBefore[i], after[i])
				}
			}
		})
	}
}

// TestEditorRetuneKeepsField verifies retune derives over the same
// field (ε never enters the stored factors) and that post-retune
// events still satisfy the oracle — the derived handle is the sole
// live view, so the Derive-vs-Rebind exclusion holds.
func TestEditorRetuneKeepsField(t *testing.T) {
	ed := editorFixture(t, 12, 5)
	fieldBefore := ed.Prepared().Problem().Field()
	if err := ed.Retune(0.2); err != nil {
		t.Fatal(err)
	}
	if ed.Prepared().Problem().Field() != fieldBefore {
		t.Fatal("retune rebuilt the interference field")
	}
	if got := ed.Prepared().Problem().Params.Eps; got != 0.2 {
		t.Fatalf("eps = %v after retune", got)
	}
	// A move through the retuned handle must still match fresh.
	p := geom.Point{X: 123, Y: 456}
	if err := ed.Move(1, &p, &geom.Point{X: 130, Y: 456}); err != nil {
		t.Fatal(err)
	}
	assertEditorMatchesFresh(t, ed)
}

// TestEditorApplyDispatch routes each wire event type through Apply.
func TestEditorApplyDispatch(t *testing.T) {
	ed := editorFixture(t, 10, 13)
	events := []network.SessionEvent{
		{Type: network.EventMove, Link: 2, Sender: &geom.Point{X: 77, Y: 88}},
		{Type: network.EventAdd, Add: &network.Link{
			Sender: geom.Point{X: 5, Y: 5}, Receiver: geom.Point{X: 15, Y: 5}, Rate: 1, Power: 1}},
		{Type: network.EventRemove, Link: 0},
		{Type: network.EventRetune, Eps: 0.15},
	}
	for i := range events {
		if err := ed.Apply(&events[i]); err != nil {
			t.Fatalf("event %d (%s): %v", i, events[i].Type, err)
		}
		assertEditorMatchesFresh(t, ed)
	}
	if ed.N() != 10 { // one add, one remove
		t.Fatalf("N = %d after add+remove, want 10", ed.N())
	}
}
