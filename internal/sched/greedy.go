package sched

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// Greedy is the natural rate-greedy insertion heuristic: consider links
// in descending rate (ties: shorter first, then lower index) and insert
// each one iff the schedule stays feasible under Corollary 3.1. It has
// no approximation guarantee — adversarial instances starve it — and
// serves as the ablation comparator quantifying what LDP's geometric
// structure buys.
type Greedy struct{}

// Name implements Algorithm.
func (Greedy) Name() string { return "greedy" }

// Solve implements Algorithm: phases "sort" and "insert", counters for
// links admitted vs rejected by the budget checks.
func (Greedy) Solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	return greedySolve(pr, scr, Selection{}, obs.TracerFrom(ctx), dst), nil
}

// Selection restricts and re-orders a greedy solve without rebuilding
// the problem. Interference factors and noise terms depend only on
// link pairs and geometry, so masking candidates on the full prepared
// field is exactly equivalent to solving a rebuilt sub-instance over
// the selected links — minus the O(n²) field rebuild.
type Selection struct {
	// Mask, when non-nil (length n), limits the candidate links to
	// those with Mask[i] true. Nil admits every link.
	Mask []bool
	// Weights, when non-nil (length n), overrides the pick order:
	// descending weight, ties by descending rate, then by index. Links
	// with weight <= 0 are excluded — a queue-length weighting thus
	// doubles as a backlog mask. Nil keeps the default greedy order
	// (descending rate, ties by ascending length).
	Weights []float64
}

func (sel Selection) validate(n int) error {
	if sel.Mask != nil && len(sel.Mask) != n {
		return fmt.Errorf("sched: selection mask length %d != n %d", len(sel.Mask), n)
	}
	if sel.Weights != nil && len(sel.Weights) != n {
		return fmt.Errorf("sched: selection weights length %d != n %d", len(sel.Weights), n)
	}
	return nil
}

// admits reports whether link i participates in the solve.
func (sel Selection) admits(i int) bool {
	if sel.Mask != nil && !sel.Mask[i] {
		return false
	}
	if sel.Weights != nil && sel.Weights[i] <= 0 {
		return false
	}
	return true
}

// greedySolve is the greedy solve over a Selection: the zero Selection
// is plain Greedy, a masked or weighted one is the traffic engine's
// per-slot pass (Prepared.ScheduleWeightedInto).
func greedySolve(pr *Problem, scr *Scratch, sel Selection, tr obs.Span, dst []int) Schedule {
	sp := tr.Child("sort")
	order := pickOrder(pr, scr, sel)
	sp.End()
	sp = tr.Child("insert")
	active, rejected := greedyInsert(pr, scr, order)
	sp.Add(obs.KeyAdmitted, int64(len(active)))
	sp.Add(obs.KeyRejected, int64(rejected))
	sp.End()
	return finishSchedule("greedy", active, dst)
}

// pickOrder returns the links sel admits in greedy pick order, in a
// scratch-owned buffer: descending rate, ties by ascending length, then
// by index (sort.Stable). Keys are negated so the shared ascending
// two-key sorter realizes the descending order. With weights the
// primary key is the weight and rate breaks ties. Only admitted links
// are sorted: a stable sort restricted to a subset equals the stable
// sort of that subset, so a masked solve matches the sub-problem solve
// exactly.
func pickOrder(pr *Problem, scr *Scratch, sel Selection) []int {
	n := pr.N()
	ps := scr.pickSorterBufs(n, true)
	m := 0
	for i := 0; i < n; i++ {
		if !sel.admits(i) {
			continue
		}
		ps.order[m] = i
		if sel.Weights == nil {
			ps.k1[m], ps.k2[m] = -pr.Links.Rate(i), pr.Links.Length(i)
		} else {
			ps.k1[m], ps.k2[m] = -sel.Weights[i], -pr.Links.Rate(i)
		}
		m++
	}
	ps.order, ps.k1, ps.k2 = ps.order[:m], ps.k1[:m], ps.k2[:m]
	sort.Stable(ps)
	return ps.order
}

// greedyInsert is the one greedy insertion loop: it walks order and
// admits each candidate that passes Corollary 3.1 against the full γ_ε
// budget (Accum.admits). Greedy runs it over every link, the sharded
// merge pass over the tile winners, which is what makes both of them
// exact restrictions of the same greedy. On tail-bounded (sparse)
// fields the loop runs through prunedInsert, which admits and rejects
// the same set in O(stored degree) per candidate instead of
// Θ(|active|).
func greedyInsert(pr *Problem, scr *Scratch, order []int) (active []int, rejected int) {
	acc := scr.noiseAccum(pr)
	active = scr.activeBuf(pr.N())
	if acc.hasTail {
		active, rejected, _ = prunedInsert(pr, scr, acc, active, order)
	} else {
		active, rejected = scanInsert(pr, acc, active, order)
	}
	scr.active = active
	return active, rejected
}

// scanInsert is the plain insertion scan: each candidate is checked
// against every active receiver. It is greedyInsert's path on exact
// (dense) fields and the reference prunedInsert is tested against.
func scanInsert(pr *Problem, acc *Accum, active, order []int) ([]int, int) {
	rejected := 0
	for _, i := range order {
		if !acc.admits(pr.Params, i, active) {
			rejected++
			continue
		}
		acc.AddLink(i)
		active = append(active, i)
	}
	return active, rejected
}

// prunedInsert is greedyInsert's fast path for tail-bounded (sparse)
// fields. The plain scan pays Θ(|active|) per candidate, and near
// budget saturation almost every candidate is rejected by *some*
// active receiver, so the scan degenerates to Θ(n·|active|) — the
// wall that dominates solves past n ≈ 10⁴. This path decides each
// candidate in O(stored degree of its sender) using the structure of
// the conservative load model.
//
// For an active receiver j with no stored factor from candidate i,
// the plain check Load(j) + Contribution(i,j) ≤ γ_ε expands to
//
//	m_j + TailBound(j)·(actPow + P_i) ≤ γ_ε,
//	m_j = load_j − TailBound(j)·nearPow_j,
//
// and, once j is active, m_j only grows as further links join: a
// stored factor dominates the tail charge it displaces (f ≥ tail·P
// for every stored pair, by the truncation-radius construction), and
// unstored joins leave m_j untouched. A running maximum M over active
// receivers' m_j therefore answers every far check at once. With the
// per-receiver tail spread over [tmin, tmax] (analytically the bounds
// coincide at cutoff/pmax; only pow() rounding separates them), the
// candidate is safe to accept on the far side when even the tmax form
// fits the budget, and safe to reject when even the tmin form
// overflows — for the arg-max receiver a stored factor from i could
// only raise its exact check above the far form. Between the two
// (a band ~10⁻⁹ of the budget wide, versus a decision granularity of
// one whole tail charge) the plain scan decides.
//
// Stored active neighbors — the O(degree) near field — are checked
// with exactly the plain scan's expression, so the admitted set is
// identical to scanInsert's on every input; TestPrunedInsertMatchesScan
// pins that equivalence. bandScans counts the candidates the margin band
// handed to the exact scan.
func prunedInsert(pr *Problem, scr *Scratch, acc *Accum, active []int, order []int) (_ []int, rejected, bandScans int) {
	isActive := boolsIn(&scr.insAct, pr.N())
	for _, j := range active {
		isActive[j] = true // pre-seeded active sets (none today) stay correct
	}
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for _, t := range acc.tail {
		tmin = math.Min(tmin, t)
		tmax = math.Max(tmax, t)
	}
	m := func(j int) float64 { return acc.load[j] - acc.tail[j]*acc.nearPow[j] }
	M := math.Inf(-1)
	for _, j := range active {
		M = math.Max(M, m(j))
	}
	// The two field visitors are built once, outside the candidate loop:
	// ForEachAffected is an interface call, so a closure literal inside
	// the loop would escape to the heap on every candidate.
	var ok bool
	nearCheck := func(j int, f float64) {
		if ok && isActive[j] && !pr.Params.Informed(acc.Load(j)+f) {
			ok = false
		}
	}
	raiseM := func(j int, _ float64) {
		if isActive[j] {
			if v := m(j); v > M {
				M = v
			}
		}
	}
	for _, i := range order {
		if !pr.Params.Informed(acc.Load(i)) {
			rejected++
			continue
		}
		ok = true
		if len(active) > 0 {
			aPrime := acc.actPow + acc.field.PowerOf(i)
			margin := 1e-9 * (acc.gammaEps + math.Abs(M) + tmax*aPrime)
			if !pr.Params.Informed(M + tmin*aPrime - margin) {
				// Even the weakest tail charge overflows the most loaded
				// receiver: every variant of its exact check fails too.
				ok = false
			} else if pr.Params.Informed(M + tmax*aPrime + margin) {
				// Far field clears the budget everywhere; only stored
				// active neighbors can still object.
				acc.field.ForEachAffected(i, nearCheck)
			} else {
				// Margin band: rounding could flip the bound tests, so
				// let the exact scan decide.
				bandScans++
				ok = acc.admits(pr.Params, i, active)
			}
		}
		if !ok {
			rejected++
			continue
		}
		acc.AddLink(i)
		isActive[i] = true
		active = append(active, i)
		if v := m(i); v > M {
			M = v
		}
		acc.field.ForEachAffected(i, raiseM)
	}
	return active, rejected, bandScans
}

func init() {
	mustRegister(Greedy{})
}
