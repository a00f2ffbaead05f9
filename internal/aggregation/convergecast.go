package aggregation

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

// Schedule is a convergecast schedule: Slot[i] gives the time slot
// (0-based) in which node i transmits its aggregate to its parent.
type Schedule struct {
	Tree *Tree
	// Slot[i] is node i's transmission slot.
	Slot []int
	// Latency is the number of slots used (max slot + 1).
	Latency int
}

// Convergecast builds a complete aggregation schedule: every node
// transmits exactly once, after all of its children, in slots whose
// concurrent link sets are feasible under the radio parameters, with
// at most one transmitting child per receiver per slot.
//
// Slot packing is greedy: among ready nodes (all children done), build
// a candidate link set with one child per distinct receiver (ties:
// deeper subtree first, then shorter edge, then index — deep subtrees
// gate the critical path), run the one-slot algorithm on it, and
// commit the result; if the algorithm declines everything, the first
// candidate is forced so the schedule always completes.
func Convergecast(t *Tree, params radio.Params, algo sched.Algorithm) (*Schedule, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := len(t.Nodes)
	cs := &Schedule{Tree: t, Slot: make([]int, n)}
	for i := range cs.Slot {
		cs.Slot[i] = -1
	}
	children, _ := t.Children()
	pendingChildren := make([]int, n) // children not yet transmitted
	for i := range children {
		pendingChildren[i] = len(children[i])
	}
	// subtreeHeight[i]: longest chain below i — the priority key.
	height := make([]int, n)
	var hwalk func(i int) int
	hwalk = func(i int) int {
		if height[i] > 0 {
			return height[i]
		}
		h := 1
		for _, c := range children[i] {
			if ch := hwalk(c) + 1; ch > h {
				h = ch
			}
		}
		height[i] = h
		return h
	}
	for i := 0; i < n; i++ {
		hwalk(i)
	}

	done := 0
	for slot := 0; done < n; slot++ {
		if slot > 2*n+1 {
			return nil, fmt.Errorf("aggregation: scheduler failed to converge (%d/%d after %d slots)", done, n, slot)
		}
		// Ready nodes, one per distinct receiver.
		ready := readyNodes(cs.Slot, pendingChildren)
		if len(ready) == 0 {
			return nil, fmt.Errorf("aggregation: no ready nodes with %d pending — precedence cycle", n-done)
		}
		slices.SortFunc(ready, func(ia, ib int) int {
			if c := cmp.Compare(height[ib], height[ia]); c != 0 {
				return c
			}
			da := t.Nodes[ia].Dist(t.ParentPoint(ia))
			db := t.Nodes[ib].Dist(t.ParentPoint(ib))
			if c := cmp.Compare(da, db); c != 0 {
				return c
			}
			return cmp.Compare(ia, ib)
		})
		var cand []int
		usedRecv := map[int]bool{}
		for _, i := range ready {
			p := t.Parent[i]
			if usedRecv[p] {
				continue
			}
			usedRecv[p] = true
			cand = append(cand, i)
		}

		links := make([]network.Link, len(cand))
		for k, i := range cand {
			links[k] = network.Link{Sender: t.Nodes[i], Receiver: t.ParentPoint(i), Rate: 1}
		}
		ls, err := network.NewLinkSet(links)
		if err != nil {
			return nil, fmt.Errorf("aggregation: slot %d candidates invalid: %w", slot, err)
		}
		pr, err := sched.NewProblem(ls, params)
		if err != nil {
			return nil, err
		}
		s, err := sched.ScheduleContext(context.Background(), algo, pr)
		if err != nil {
			return nil, fmt.Errorf("aggregation: slot %d: %s: %w", slot, algo.Name(), err)
		}
		picked := s.Active
		if len(picked) == 0 {
			picked = []int{0} // force the highest-priority candidate
		}
		for _, k := range picked {
			i := cand[k]
			cs.Slot[i] = slot
			done++
			if p := t.Parent[i]; p != SinkParent {
				pendingChildren[p]--
			}
		}
		cs.Latency = slot + 1
	}
	return cs, nil
}

func readyNodes(slot []int, pendingChildren []int) []int {
	var out []int
	for i := range slot {
		if slot[i] < 0 && pendingChildren[i] == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Validate re-checks a convergecast schedule independently: every node
// transmits exactly once, strictly after its children, with unique
// receivers per slot and every slot's link set feasible.
func (cs *Schedule) Validate(params radio.Params) error {
	t := cs.Tree
	n := len(t.Nodes)
	slots := make(map[int][]int)
	for i, s := range cs.Slot {
		if s < 0 || s >= cs.Latency {
			return fmt.Errorf("aggregation: node %d has slot %d outside [0,%d)", i, s, cs.Latency)
		}
		slots[s] = append(slots[s], i)
		if p := t.Parent[i]; p != SinkParent && cs.Slot[p] <= s {
			return fmt.Errorf("aggregation: node %d (slot %d) transmits after parent %d (slot %d)",
				i, s, p, cs.Slot[p])
		}
	}
	covered := 0
	for s := 0; s < cs.Latency; s++ {
		nodes := slots[s]
		covered += len(nodes)
		if len(nodes) == 0 {
			return fmt.Errorf("aggregation: slot %d empty", s)
		}
		recv := map[int]bool{}
		links := make([]network.Link, len(nodes))
		for k, i := range nodes {
			p := t.Parent[i]
			if recv[p] {
				return fmt.Errorf("aggregation: slot %d has two transmissions to parent %d", s, p)
			}
			recv[p] = true
			links[k] = network.Link{Sender: t.Nodes[i], Receiver: t.ParentPoint(i), Rate: 1}
		}
		ls, err := network.NewLinkSet(links)
		if err != nil {
			return err
		}
		pr, err := sched.NewProblem(ls, params)
		if err != nil {
			return err
		}
		all := make([]int, len(links))
		for k := range all {
			all[k] = k
		}
		if len(links) > 1 {
			if v := sched.Verify(pr, sched.NewSchedule("slot", all)); len(v) != 0 {
				return fmt.Errorf("aggregation: slot %d infeasible: %v", s, v[0])
			}
		}
	}
	if covered != n {
		return fmt.Errorf("aggregation: %d of %d nodes scheduled", covered, n)
	}
	return nil
}
