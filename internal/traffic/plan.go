package traffic

import (
	"context"
	"fmt"

	"repro/internal/network"
	"repro/internal/sched"
)

// Plan is a complete drain-to-empty schedule: a sequence of per-slot
// activation sets that together cover every schedulable link exactly
// once. It is the slot-exact planner form of a drain run (no
// arrivals, no fading), absorbed from the retired multislot package.
type Plan struct {
	// Slots holds one feasible Schedule per time slot, in order. The
	// Active indices refer to the ORIGINAL problem's links.
	Slots []sched.Schedule
	// Unschedulable lists links that cannot transmit even alone
	// (noise-dead); empty on the paper's zero-noise model.
	Unschedulable []int
	// Algorithm names the one-slot scheduler used.
	Algorithm string
}

// NumSlots returns the plan length.
func (p Plan) NumSlots() int { return len(p.Slots) }

// TotalScheduled counts the links covered by the plan.
func (p Plan) TotalScheduled() int {
	total := 0
	for _, s := range p.Slots {
		total += s.Len()
	}
	return total
}

// Validate checks the plan against the original problem: every slot
// feasible, every schedulable link covered exactly once, and the
// unschedulable list disjoint from the slots.
func (p Plan) Validate(pr *sched.Problem) error {
	seen := make([]int, pr.N())
	for k, s := range p.Slots {
		if v := sched.Verify(pr, s); len(v) != 0 {
			return fmt.Errorf("traffic: plan slot %d infeasible: %v", k, v[0])
		}
		for _, i := range s.Active {
			seen[i]++
		}
	}
	unsched := make(map[int]bool, len(p.Unschedulable))
	for _, i := range p.Unschedulable {
		if pr.Params.Informed(pr.NoiseTerm(i)) {
			return fmt.Errorf("traffic: link %d marked unschedulable but is feasible alone", i)
		}
		if unsched[i] {
			return fmt.Errorf("traffic: link %d listed unschedulable twice", i)
		}
		unsched[i] = true
	}
	for i, c := range seen {
		switch {
		case unsched[i] && c != 0:
			return fmt.Errorf("traffic: unschedulable link %d appears in %d slots", i, c)
		case !unsched[i] && c > 1:
			return fmt.Errorf("traffic: link %d scheduled %d times", i, c)
		case !unsched[i] && c == 0:
			return fmt.Errorf("traffic: link %d never scheduled", i)
		}
	}
	return nil
}

// BuildPlan assembles a complete plan by repeatedly applying the
// one-slot algorithm to the residual links. If a round schedules
// nothing while schedulable links remain (a conservative algorithm can
// refuse a residual configuration), the shortest remaining link is
// forced into its own slot so the loop always progresses; forced slots
// are singletons and therefore trivially feasible.
func BuildPlan(pr *sched.Problem, algo sched.Algorithm) (Plan, error) {
	plan := Plan{Algorithm: algo.Name()}
	remaining := make([]int, 0, pr.N())
	for i := 0; i < pr.N(); i++ {
		if pr.Params.Informed(pr.NoiseTerm(i)) {
			remaining = append(remaining, i)
		} else {
			plan.Unschedulable = append(plan.Unschedulable, i)
		}
	}
	for len(remaining) > 0 {
		sub, back, err := subProblem(pr, remaining)
		if err != nil {
			return Plan{}, err
		}
		s, err := sched.ScheduleContext(context.Background(), algo, sub)
		if err != nil {
			return Plan{}, fmt.Errorf("traffic: %s on slot %d: %w", algo.Name(), len(plan.Slots), err)
		}
		var chosen []int
		for _, i := range s.Active {
			chosen = append(chosen, back[i])
		}
		if len(chosen) == 0 {
			// Force progress: the shortest residual link alone.
			shortest := remaining[0]
			for _, i := range remaining[1:] {
				if pr.Links.Length(i) < pr.Links.Length(shortest) {
					shortest = i
				}
			}
			chosen = []int{shortest}
		}
		plan.Slots = append(plan.Slots, sched.NewSchedule(algo.Name(), chosen))
		remaining = subtract(remaining, chosen)
	}
	return plan, nil
}

// subProblem builds the residual instance over the given original link
// indices, returning the sub-problem and the sub→original index map.
func subProblem(pr *sched.Problem, idxs []int) (*sched.Problem, []int, error) {
	links := make([]network.Link, len(idxs))
	back := make([]int, len(idxs))
	for k, i := range idxs {
		links[k] = pr.Links.Link(i)
		back[k] = i
	}
	ls, err := network.NewLinkSet(links)
	if err != nil {
		return nil, nil, fmt.Errorf("traffic: residual instance invalid: %w", err)
	}
	sub, err := sched.NewProblem(ls, pr.Params)
	if err != nil {
		return nil, nil, err
	}
	return sub, back, nil
}

func subtract(all, remove []int) []int {
	dead := make(map[int]bool, len(remove))
	for _, i := range remove {
		dead[i] = true
	}
	out := all[:0]
	for _, i := range all {
		if !dead[i] {
			out = append(out, i)
		}
	}
	return out
}
