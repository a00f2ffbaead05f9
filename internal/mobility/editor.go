package mobility

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Editor applies streaming geometry events — move, add, remove, retune
// — onto a live Prepared handle. It is the client-driven counterpart
// of Tracker: where Tracker advances a synthetic Trace and rebinds
// whatever drifted, Editor applies one explicit event at a time and
// picks the cheapest update the event admits:
//
//   - move goes through Problem.Rebind — the dense backend patches only
//     the moved link's row and column, O(n) instead of the O(n²)
//     rebuild, which is what makes per-event re-solving affordable
//     (counted by Rebinds; other backends rebuild inside Rebind);
//   - retune goes through Prepared.Derive — ε never enters the stored
//     factors, so the field is reused untouched;
//   - add and remove change the link count and go through
//     Problem.Splice — the dense backend copies the kept pairs into a
//     resized matrix and computes only an added link's row and column
//     (counted by Splices); other backends rebuild the field (counted
//     by Rebuilds, so callers can account for the O(n²) cost
//     honestly). Either way the event replaces the prepared handle.
//
// Every mutator validates the candidate geometry — a move against the
// other n−1 links (LinkSet.WithLink), add and remove through
// NewLinkSet — before touching the problem, so a rejected event
// provably leaves the editor's state unchanged. An Editor is not safe
// for concurrent use; callers serialize events against solves exactly
// as Problem.Rebind already requires.
type Editor struct {
	prep *sched.Prepared

	rebinds  int64
	splices  int64
	rebuilds int64
}

// NewEditor wraps an existing prepared handle. The option argument is
// accepted for compatibility and not used: the handle's problem carries
// the builder its backend rebuilds through.
func NewEditor(prep *sched.Prepared, _ sched.Option) *Editor {
	return &Editor{prep: prep}
}

// Prepared returns the current solve handle. Add, remove and retune
// replace it, so callers must re-read after every event rather than
// caching it.
func (ed *Editor) Prepared() *sched.Prepared { return ed.prep }

// N returns the current number of links.
func (ed *Editor) N() int { return ed.prep.Problem().N() }

// Links returns a copy of the current link list.
func (ed *Editor) Links() []network.Link { return ed.prep.Problem().Links.Links() }

// Rebinds counts moves applied by incremental field patching (dense).
func (ed *Editor) Rebinds() int64 { return ed.rebinds }

// Splices counts adds and removes the dense backend applied by
// splicing the old matrix into the resized one.
func (ed *Editor) Splices() int64 { return ed.splices }

// Rebuilds counts events that paid a full field reconstruction: moves,
// adds and removes on backends that can neither patch nor splice.
// Dense editors never rebuild.
func (ed *Editor) Rebuilds() int64 { return ed.rebuilds }

// Apply dispatches one wire event. The frame must already have passed
// SessionEvent.Validate against the current N.
func (ed *Editor) Apply(ev *network.SessionEvent) error {
	return ed.ApplyContext(context.Background(), ev)
}

// ApplyContext is Apply under a context. When ctx carries a trace span
// the update path the event took is recorded as a distinct span —
// "rebind" for a move (the O(n) dense row/column patch), "splice" for
// a dense add/remove (kept pairs copied, no kernel fill), "rebuild"
// for an add/remove on other backends (a full field reconstruction,
// with the builder's phases nested inside), "derive" for a retune
// (field reused untouched) — so a session trace shows which events
// paid O(n²) kernel work. Add and remove spans carry the event type as
// "cause".
func (ed *Editor) ApplyContext(ctx context.Context, ev *network.SessionEvent) error {
	parent := obs.SpanFrom(ctx)
	switch ev.Type {
	case network.EventMove:
		sp := parent.Child("rebind")
		sp.SetInt("link", int64(ev.Link))
		err := ed.Move(ev.Link, ev.Sender, ev.Receiver)
		sp.End()
		return err
	case network.EventAdd, network.EventRemove:
		name := "rebuild"
		if ed.prep.Problem().Incremental() {
			name = "splice"
		}
		sp := parent.Child(name)
		sp.SetStr("cause", ev.Type)
		ctx = obs.ContextWithSpan(ctx, sp)
		var err error
		if ev.Type == network.EventAdd {
			err = ed.add(ctx, *ev.Add)
		} else {
			sp.SetInt("link", int64(ev.Link))
			err = ed.remove(ctx, ev.Link)
		}
		sp.End()
		return err
	case network.EventRetune:
		sp := parent.Child("derive")
		sp.SetFloat("eps", ev.Eps)
		err := ed.Retune(ev.Eps)
		sp.End()
		return err
	default:
		return fmt.Errorf("mobility: unknown event type %q", ev.Type)
	}
}

// Move repositions link i: a non-nil sender and/or receiver replaces
// the corresponding endpoint. The moved link is validated against the
// other n−1 links only (O(n), LinkSet.WithLink), and the interference
// field is patched incrementally via Rebind — on the dense backend only
// row and column i are recomputed.
func (ed *Editor) Move(i int, sender, receiver *geom.Point) error {
	pr := ed.prep.Problem()
	if i < 0 || i >= pr.N() {
		return fmt.Errorf("mobility: move link %d out of range [0,%d)", i, pr.N())
	}
	if sender == nil && receiver == nil {
		return fmt.Errorf("mobility: move needs a sender and/or receiver position")
	}
	l := pr.Links.Link(i)
	if sender != nil {
		l.Sender = *sender
	}
	if receiver != nil {
		l.Receiver = *receiver
	}
	ls, err := pr.Links.WithLink(i, l)
	if err != nil {
		return err
	}
	if err := pr.Rebind(ls, []int{i}); err != nil {
		return err
	}
	if pr.Incremental() {
		ed.rebinds++
	} else {
		ed.rebuilds++
	}
	return nil
}

// Add appends a link; its index is the new N−1 and existing indices
// are stable. The field is spliced (dense) or rebuilt.
func (ed *Editor) Add(l network.Link) error { return ed.add(context.Background(), l) }

func (ed *Editor) add(ctx context.Context, l network.Link) error {
	links := ed.prep.Problem().Links
	next := make([]network.Link, 0, links.Len()+1)
	for k := 0; k < links.Len(); k++ {
		next = append(next, links.Link(k))
	}
	return ed.splice(ctx, append(next, l), -1)
}

// Remove deletes link i and splices (dense) or rebuilds the field.
// Links above i shift down by one — RenumberAfterRemove is the matching
// index rewrite for any schedule held against the old instance.
func (ed *Editor) Remove(i int) error { return ed.remove(context.Background(), i) }

func (ed *Editor) remove(ctx context.Context, i int) error {
	links := ed.prep.Problem().Links
	if i < 0 || i >= links.Len() {
		return fmt.Errorf("mobility: remove link %d out of range [0,%d)", i, links.Len())
	}
	if links.Len() == 1 {
		return fmt.Errorf("mobility: cannot remove the last link (an instance needs at least one)")
	}
	next := make([]network.Link, 0, links.Len()-1)
	for k := 0; k < links.Len(); k++ {
		if k != i {
			next = append(next, links.Link(k))
		}
	}
	return ed.splice(ctx, next, i)
}

// Retune changes the target success probability ε, deriving a sibling
// handle over the same field — no rebuild, no rebind. After a retune
// the previous handle is dropped, so the Derive-vs-Rebind exclusion
// (siblings must not outlive a rebind) holds by construction: the
// derived handle is the only live view of the field.
func (ed *Editor) Retune(eps float64) error {
	p := ed.prep.Problem().Params
	p.Eps = eps
	dp, err := ed.prep.Derive(p)
	if err != nil {
		return err
	}
	ed.prep = dp
	return nil
}

// splice validates next and replaces the prepared handle with one over
// it built by Problem.Splice, keeping the current radio parameters.
// The old handle is dropped, so nothing here keeps its field alive.
func (ed *Editor) splice(ctx context.Context, next []network.Link, removed int) error {
	ls, err := network.NewLinkSet(next)
	if err != nil {
		return err
	}
	pr := ed.prep.Problem()
	spliced, err := pr.Splice(ctx, ls, removed)
	if err != nil {
		return err
	}
	if pr.Incremental() {
		ed.splices++
	} else {
		ed.rebuilds++
	}
	ed.prep = sched.NewPrepared(spliced)
	return nil
}
