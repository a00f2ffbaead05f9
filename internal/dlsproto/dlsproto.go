// Package dlsproto implements the decentralized scheduler as a real
// message-passing protocol on the protocol engine — the distributed
// counterpart of sched.DLS, which models the same contention/probing/
// backoff scheme as synchronous rounds over global state.
//
// Each link is a protocol node that knows only the system constants
// (radio parameters, c₁, c₂), its own geometry, and what it hears over
// the air within the radio range; all interference "measurements" are
// computed from geometry carried in messages, exactly the information
// a receiver estimates from preambles in practice.
//
// A scheduling cycle is four engine rounds:
//
//	PRIO   undecided links broadcast a short-link-biased priority;
//	       active links broadcast a heartbeat with their geometry.
//	TENT   links that beat every contending undecided neighbor
//	       broadcast a tentative-activation announcement.
//	PROBE  every link evaluates its receiver's local interference
//	       budget against heard actives + tentatives; a violated
//	       receiver broadcasts a NACK.
//	COMMIT tentative links that heard a NACK back off (bounded
//	       retries); the rest activate.
//
// A violated receiver NACKs the whole tentative cohort it heard, so an
// active set that was feasible before a cycle stays feasible after it:
// either no receiver objected (every receiver verified the full new
// set) or the objecting receivers' cohorts withdrew. The interference
// budget is the RLE split c₂·γ_ε, leaving the (1−c₂) share as slack for
// contributors beyond the radio range, mirroring Theorem 4.3's ring
// argument; the package tests verify the resulting schedules against
// sched.Verify on every instance they touch.
package dlsproto

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/protocol"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Config parameterizes a protocol run.
type Config struct {
	// Seed drives the per-node priority draws.
	Seed uint64
	// Cycles is the number of 4-round scheduling cycles. Zero means 24.
	Cycles int
	// C2 is the budget split (0 = sched.DefaultC2).
	C2 float64
	// MaxRetries bounds backoffs per link (0 = 3).
	MaxRetries int
	// RadioRange is the message propagation radius. Zero derives
	// 2·c₁·(longest link) from the instance — generous enough to cover
	// every contention and every budget-relevant interferer.
	RadioRange float64
}

// geometry is the per-link information carried in every message.
type geometry struct {
	Sender, Receiver geom.Point
	Length, Power    float64
}

type prioMsg struct {
	Prio float64
	Geo  geometry
}

type heartbeatMsg struct{ Geo geometry }

type tentMsg struct{ Geo geometry }

type nackMsg struct{}

type nodeState int

const (
	stateUndecided nodeState = iota
	stateTentative
	stateActive
	stateGaveUp
)

// node is one link's protocol participant.
type node struct {
	id     int
	geo    geometry
	params radio.Params
	c1, c2 float64
	budget float64 // c₂·(γ_ε − own noise term)
	src    *rng.Source
	delta  float64 // shortest link length (deployment constant)
	max    int

	state      nodeState
	retry      int
	cachedPrio float64 // this cycle's priority, drawn once in PRIO

	// Hearsay: latest known geometry of active neighbors and this
	// cycle's prios/tentatives, keyed by node id.
	actives map[int]geometry
	prios   map[int]prioMsg
	tents   map[int]geometry
	nacked  bool
}

// Step implements protocol.Node.
func (n *node) Step(round int, inbox []protocol.Message) ([]protocol.Message, bool) {
	protocol.SortInbox(inbox)
	switch round % 4 {
	case 0:
		return n.stepPrio(inbox)
	case 1:
		return n.stepTent(inbox)
	case 2:
		return n.stepProbe(inbox)
	default:
		return n.stepCommit(inbox)
	}
}

func (n *node) stepPrio(inbox []protocol.Message) ([]protocol.Message, bool) {
	// Refresh the active-neighbor view from last cycle's heartbeats
	// (and commits observed via tentatives that became active: actives
	// heartbeat every cycle, so the map converges).
	n.prios = map[int]prioMsg{}
	n.tents = map[int]geometry{}
	n.nacked = false
	switch n.state {
	case stateActive:
		return []protocol.Message{{To: protocol.Broadcast, Payload: heartbeatMsg{Geo: n.geo}}}, false
	case stateUndecided:
		// Rule-2 analog: if the active set already exhausts the local
		// budget, this link can never join.
		if n.localInterference(n.actives, nil) > n.budget {
			n.state = stateGaveUp
			return nil, true
		}
		u := n.src.Float64Open()
		w := n.geo.Length / n.delta
		n.cachedPrio = math.Pow(u, w*w)
		p := prioMsg{Prio: n.cachedPrio, Geo: n.geo}
		return []protocol.Message{{To: protocol.Broadcast, Payload: p}}, false
	default:
		return nil, true
	}
}

func (n *node) stepTent(inbox []protocol.Message) ([]protocol.Message, bool) {
	for _, m := range inbox {
		switch pl := m.Payload.(type) {
		case prioMsg:
			n.prios[m.From] = pl
		case heartbeatMsg:
			n.actives[m.From] = pl.Geo
		}
	}
	if n.state != stateUndecided {
		return nil, n.state == stateGaveUp
	}
	myPrio := n.cachedPrio
	for from, p := range n.prios {
		if !contends(n.params, n.c1, n.geo, p.Geo) {
			continue
		}
		if p.Prio > myPrio || (p.Prio == myPrio && from < n.id) {
			return nil, false // lost the election; wait for next cycle
		}
	}
	n.state = stateTentative
	return []protocol.Message{{To: protocol.Broadcast, Payload: tentMsg{Geo: n.geo}}}, false
}

func (n *node) stepProbe(inbox []protocol.Message) ([]protocol.Message, bool) {
	for _, m := range inbox {
		if t, ok := m.Payload.(tentMsg); ok {
			n.tents[m.From] = t.Geo
		}
	}
	if n.state == stateGaveUp {
		return nil, true
	}
	// Members (active and tentative) measure the would-be set of
	// actives + tentatives; a violated member NACKs. Undecided links do
	// not probe — their protection is the rule-2 give-up check, exactly
	// as in sched.DLS. A violated tentative also marks ITSELF nacked:
	// broadcasts do not self-deliver, and a tentative must never commit
	// into a configuration it just measured as over budget.
	if n.state == stateActive || n.state == stateTentative {
		if n.localInterference(n.actives, n.tents) > n.budget {
			if n.state == stateTentative {
				n.nacked = true
			}
			return []protocol.Message{{To: protocol.Broadcast, Payload: nackMsg{}}}, false
		}
	}
	return nil, false
}

func (n *node) stepCommit(inbox []protocol.Message) ([]protocol.Message, bool) {
	for _, m := range inbox {
		if _, ok := m.Payload.(nackMsg); ok {
			n.nacked = true
		}
	}
	if n.state != stateTentative {
		return nil, n.state == stateGaveUp
	}
	if n.nacked {
		n.state = stateUndecided
		n.retry++
		if n.retry >= n.max {
			n.state = stateGaveUp
			return nil, true
		}
		return nil, false
	}
	n.state = stateActive
	return nil, false
}

// localInterference sums this receiver's interference factors from the
// given neighbor geometries (skipping itself), plus its own noise term
// normalized out of the budget at construction.
func (n *node) localInterference(sets ...map[int]geometry) float64 {
	var sum float64
	for _, set := range sets {
		for from, g := range set {
			if from == n.id {
				continue
			}
			d := g.Sender.Dist(n.geo.Receiver)
			sum += n.params.InterferenceFactorP(g.Power, d, n.geo.Power, n.geo.Length)
		}
	}
	return sum
}

func contends(p radio.Params, c1 float64, a, b geometry) bool {
	return b.Sender.Dist(a.Receiver) < c1*a.Length ||
		a.Sender.Dist(b.Receiver) < c1*b.Length
}

// Stats reports the communication cost of a protocol run — the metric
// a distributed scheduler is judged on besides throughput.
type Stats struct {
	// Rounds is the number of engine rounds executed.
	Rounds int
	// Delivered and Dropped count messages (dropped = out of radio
	// range or addressed to a halted node).
	Delivered, Dropped int64
	// Active, GaveUp, Undecided partition the links at termination.
	Active, GaveUp, Undecided int
}

// Run executes the distributed protocol over the problem's links and
// returns the resulting schedule.
func Run(pr *sched.Problem, cfg Config) (sched.Schedule, error) {
	s, _, err := RunDetailed(pr, cfg)
	return s, err
}

// RunDetailed is Run plus communication statistics.
func RunDetailed(pr *sched.Problem, cfg Config) (sched.Schedule, Stats, error) {
	cycles := cfg.Cycles
	if cycles == 0 {
		cycles = 24
	}
	c2 := cfg.C2
	if c2 == 0 {
		c2 = sched.DefaultC2
	}
	retries := cfg.MaxRetries
	if retries == 0 {
		retries = 3
	}
	n := pr.N()
	if n == 0 {
		return sched.NewSchedule("dlsproto", nil), Stats{}, nil
	}
	delta, err := pr.Links.MinLength()
	if err != nil {
		return sched.Schedule{}, Stats{}, err
	}
	c1 := sched.RLEC1(pr.Params, c2)
	radioRange := cfg.RadioRange
	if radioRange == 0 {
		radioRange = 2 * c1 * pr.Links.MaxLength()
	}

	nodes := make([]protocol.Node, n)
	impl := make([]*node, n)
	for i := 0; i < n; i++ {
		l := pr.Links.Link(i)
		ge := pr.GammaEps()
		noise := pr.NoiseTerm(i)
		nd := &node{
			id: i,
			geo: geometry{
				Sender: l.Sender, Receiver: l.Receiver,
				Length: pr.Links.Length(i),
				Power:  pr.PowerOf(i),
			},
			params:  pr.Params,
			c1:      c1,
			c2:      c2,
			budget:  c2 * (ge - noise),
			src:     rng.Stream(cfg.Seed, "dlsproto", uint64(i)),
			delta:   delta,
			max:     retries,
			actives: map[int]geometry{},
		}
		if noise > ge/2 {
			nd.state = stateGaveUp
		}
		impl[i] = nd
		nodes[i] = nd
	}

	// Physics: messages carry only within the radio range, measured
	// sender-to-sender (node positions).
	senders := pr.Links.Senders()
	topo := func(a, b int) bool {
		return senders[a].Dist(senders[b]) <= radioRange
	}
	eng := protocol.NewEngine(nodes, topo)
	rounds, err := eng.Run(cycles * 4)
	if err != nil {
		return sched.Schedule{}, Stats{}, err
	}
	stats := Stats{
		Rounds:    rounds,
		Delivered: eng.Delivered(),
		Dropped:   eng.Dropped(),
	}
	var active []int
	for i, nd := range impl {
		switch nd.state {
		case stateActive:
			active = append(active, i)
			stats.Active++
		case stateGaveUp:
			stats.GaveUp++
		default:
			stats.Undecided++
		}
	}
	return sched.NewSchedule("dlsproto", active), stats, nil
}

// Algorithm adapts Run to the sched.Algorithm interface so the
// distributed protocol slots into the registry, the CLIs, and the
// experiment harness alongside the centralized schedulers.
type Algorithm struct {
	Config
}

// Name implements sched.Algorithm.
func (Algorithm) Name() string { return "dlsproto" }

// Solve implements sched.Algorithm by running the protocol to
// completion; it neither polls ctx nor uses the scratch workspace.
// Run's only error paths are an invalid round budget (excluded by
// construction) and an empty-set MinLength (excluded by the n == 0
// fast path).
func (a Algorithm) Solve(_ context.Context, pr *sched.Problem, _ *sched.Scratch, _ []int) (sched.Schedule, error) {
	cfg := a.Config
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return Run(pr, cfg)
}

func init() {
	if err := sched.Register(Algorithm{}); err != nil {
		panic(err)
	}
}
