package traffic

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
)

func paperPrepared(t testing.TB, n int, seed uint64) *sched.Prepared {
	t.Helper()
	ls, err := network.Generate(network.PaperConfig(n), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := sched.Prepare(ls, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func mustRun(t *testing.T, pp *sched.Prepared, cfg Config) Result {
	t.Helper()
	eng, err := New(pp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run(context.Background())
}

func TestPacketConservation(t *testing.T) {
	pp := paperPrepared(t, 60, 3)
	for _, pol := range []Policy{PolicyBacklog, PolicyMaxQueue, PolicyMaxWeight} {
		res := mustRun(t, pp, Config{
			Slots: 200, Arrivals: Bernoulli{P: 0.08}, Policy: pol, Seed: 1,
		})
		if res.Arrived == 0 {
			t.Fatalf("%s: no arrivals at p=0.08 over 200 slots", pol)
		}
		if got := res.Delivered + res.Dropped + res.Backlog; got != res.Arrived {
			t.Errorf("%s: conservation broken: delivered %d + dropped %d + backlog %d != arrived %d",
				pol, res.Delivered, res.Dropped, res.Backlog, res.Arrived)
		}
		if res.Attempts != res.Delivered+res.FailedTx {
			t.Errorf("%s: attempts %d != delivered %d + failed %d", pol, res.Attempts, res.Delivered, res.FailedTx)
		}
		if res.Slots != 200 || res.Truncated {
			t.Errorf("%s: ran %d slots, truncated=%v", pol, res.Slots, res.Truncated)
		}
	}
}

func TestZeroArrivalsIdle(t *testing.T) {
	pp := paperPrepared(t, 20, 1)
	res := mustRun(t, pp, Config{Slots: 50, Arrivals: Bernoulli{P: 0}, Seed: 2})
	if res.Arrived != 0 || res.Attempts != 0 || res.Backlog != 0 {
		t.Errorf("idle network moved packets: %+v", res)
	}
	if res.PerSlotDelivered.N() != 50 {
		t.Errorf("per-slot series has %d entries", res.PerSlotDelivered.N())
	}
	if res.Drift != 0 {
		t.Errorf("idle drift %v, want 0", res.Drift)
	}
}

func TestQueueCapDrops(t *testing.T) {
	pp := paperPrepared(t, 80, 5)
	res := mustRun(t, pp, Config{
		Slots: 60, Arrivals: Bernoulli{P: 1}, QueueCap: 3, Seed: 3,
	})
	if res.Dropped == 0 {
		t.Error("saturated 3-deep queues dropped nothing")
	}
	if res.Backlog > int64(3*80) {
		t.Errorf("backlog %d exceeds total queue capacity %d", res.Backlog, 3*80)
	}
}

func TestNoFadingDeliversEverythingScheduled(t *testing.T) {
	pp := paperPrepared(t, 60, 2)
	res := mustRun(t, pp, Config{
		Slots: 150, Arrivals: Bernoulli{P: 0.06}, Seed: 6, NoFading: true,
	})
	if res.FailedTx != 0 {
		t.Errorf("NoFading lost %d transmissions", res.FailedTx)
	}
	if res.Delivered != res.Attempts {
		t.Errorf("delivered %d != attempts %d without fading", res.Delivered, res.Attempts)
	}
}

func TestFadingAwareLossStaysSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	pp := paperPrepared(t, 100, 7)
	res := mustRun(t, pp, Config{Slots: 400, Arrivals: Bernoulli{P: 0.05}, Seed: 4})
	if res.Attempts < 500 {
		t.Fatalf("too few attempts (%d) to measure loss", res.Attempts)
	}
	// Greedy admits sets within the Corollary 3.1 budget, so each
	// attempt fails with probability ≤ ε = 0.01; allow 3× for noise.
	if lr := res.LossRate(); lr > 0.03 {
		t.Errorf("fading-aware loss rate %v ≫ ε", lr)
	}
}

func TestDelayGrowsWithLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	pp := paperPrepared(t, 100, 11)
	light := mustRun(t, pp, Config{Slots: 300, Arrivals: Bernoulli{P: 0.01}, Seed: 7})
	heavy := mustRun(t, pp, Config{Slots: 300, Arrivals: Bernoulli{P: 0.2}, Seed: 7})
	if light.Delay.N() == 0 || heavy.Delay.N() == 0 {
		t.Fatal("no deliveries recorded")
	}
	if heavy.Delay.Mean() <= light.Delay.Mean() {
		t.Errorf("delay did not grow with load: light %v, heavy %v",
			light.Delay.Mean(), heavy.Delay.Mean())
	}
	if heavy.Drift <= light.Drift {
		t.Errorf("drift did not grow with load: light %v, heavy %v", light.Drift, heavy.Drift)
	}
}

func TestPoissonArrivals(t *testing.T) {
	pp := paperPrepared(t, 50, 13)
	res := mustRun(t, pp, Config{Slots: 200, Arrivals: Poisson{Lambda: 0.1}, Seed: 5})
	if res.Arrived == 0 {
		t.Fatal("no Poisson arrivals at λ=0.1 over 200 slots")
	}
	if got := res.Delivered + res.Dropped + res.Backlog; got != res.Arrived {
		t.Errorf("conservation broken: %+v", res)
	}
	// Mean arrivals per link-slot ≈ λ; allow generous sampling slack.
	mean := float64(res.Arrived) / float64(50*200)
	if mean < 0.05 || mean > 0.2 {
		t.Errorf("Poisson arrival mean %v far from λ=0.1", mean)
	}
}

func TestTraceArrivals(t *testing.T) {
	pp := paperPrepared(t, 4, 17)
	counts := [][]int{
		{2, 0, 0, 0},
		{0, 1, 0, 1},
	}
	res := mustRun(t, pp, Config{
		Slots: 10, Arrivals: Trace{Counts: counts}, Seed: 5, NoFading: true,
	})
	// 5 cycles × 4 packets per cycle.
	if res.Arrived != 20 {
		t.Errorf("trace arrivals: arrived %d, want 20", res.Arrived)
	}
	if got := res.Delivered + res.Dropped + res.Backlog; got != res.Arrived {
		t.Errorf("conservation broken: %+v", res)
	}
}

func TestTraceWidthRejected(t *testing.T) {
	pp := paperPrepared(t, 4, 17)
	_, err := New(pp, Config{Slots: 10, Arrivals: Trace{Counts: [][]int{{1, 2}}}})
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("width mismatch not rejected with ConfigError: %v", err)
	}
}

func TestInitialBacklogDrains(t *testing.T) {
	pp := paperPrepared(t, 40, 19)
	res := mustRun(t, pp, Config{
		Slots: 400, Arrivals: Bernoulli{P: 0}, InitialBacklog: 2, Seed: 6, NoFading: true,
	})
	if res.Arrived != 80 {
		t.Fatalf("initial backlog counted %d arrivals, want 80", res.Arrived)
	}
	if res.Backlog != 0 {
		t.Errorf("drain run left %d packets queued", res.Backlog)
	}
	if res.Delivered != 80 {
		t.Errorf("drain run delivered %d of 80", res.Delivered)
	}
	if res.Drift > 0 {
		t.Errorf("drain run drift %v > 0", res.Drift)
	}
}

func TestDeterministicTraceByteIdentical(t *testing.T) {
	pp := paperPrepared(t, 50, 13)
	var bufA, bufB bytes.Buffer
	engA, err := New(pp, Config{Slots: 120, Arrivals: Bernoulli{P: 0.1}, Policy: PolicyMaxQueue, Seed: 8, TraceWriter: &bufA})
	if err != nil {
		t.Fatal(err)
	}
	resA := engA.Run(context.Background())
	engB, err := New(pp, Config{Slots: 120, Arrivals: Bernoulli{P: 0.1}, Policy: PolicyMaxQueue, Seed: 8, TraceWriter: &bufB})
	if err != nil {
		t.Fatal(err)
	}
	resB := engB.Run(context.Background())
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same seed produced different engine traces")
	}
	if bufA.Len() == 0 {
		t.Fatal("empty engine trace")
	}
	if resA.Delivered != resB.Delivered || resA.Delay != resB.Delay ||
		resA.Backlog != resB.Backlog || resA.Drift != resB.Drift {
		t.Errorf("identical configs diverged:\n%+v\n%+v", resA, resB)
	}
	if len(resA.DelaySamples) != len(resB.DelaySamples) {
		t.Fatal("reservoir sizes diverged")
	}
	for i := range resA.DelaySamples {
		if resA.DelaySamples[i] != resB.DelaySamples[i] {
			t.Fatal("reservoir contents diverged")
		}
	}
}

func TestTruncationOnContextCancel(t *testing.T) {
	pp := paperPrepared(t, 30, 21)
	eng, err := New(pp, Config{Slots: 1000, Arrivals: Bernoulli{P: 0.1}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 40; i++ {
		if err := eng.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	res := eng.Run(ctx)
	if !res.Truncated {
		t.Error("canceled run not marked truncated")
	}
	if res.Slots != 40 {
		t.Errorf("truncated run reports %d slots, want 40", res.Slots)
	}
	if got := res.Delivered + res.Dropped + res.Backlog; got != res.Arrived {
		t.Errorf("truncated run broke conservation: %+v", res)
	}
}

func TestReservoirBoundsDelaySamples(t *testing.T) {
	pp := paperPrepared(t, 60, 23)
	res := mustRun(t, pp, Config{
		Slots: 300, Arrivals: Bernoulli{P: 0.3}, QueueCap: 5,
		ReservoirSize: 32, Seed: 10,
	})
	if res.Delay.N() <= 32 {
		t.Fatalf("only %d deliveries; need more than the reservoir to test bounding", res.Delay.N())
	}
	if len(res.DelaySamples) != 32 {
		t.Errorf("reservoir retained %d samples, want 32", len(res.DelaySamples))
	}
	p50 := res.DelayQuantile(0.5)
	if p50 < res.Delay.Min() || p50 > res.Delay.Max() {
		t.Errorf("reservoir median %v outside observed delay range [%v, %v]",
			p50, res.Delay.Min(), res.Delay.Max())
	}
}

// TestMaxQueuePreventsStarvation is the end-to-end case for weighted
// scheduling: two mutually conflicting links (only one can transmit
// per slot) with different rates, both loaded every slot. The offered
// load (2 packets/slot) exceeds capacity (1/slot), so total backlog
// grows identically under any policy — what differs is the
// distribution. Rate-greedy masking (PolicyBacklog) always serves the
// high-rate link and starves the other into one long queue;
// PolicyMaxQueue alternates, splitting the backlog evenly.
func TestMaxQueuePreventsStarvation(t *testing.T) {
	ls := network.MustNewLinkSet([]network.Link{
		{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 10, Y: 0}, Rate: 2},
		{Sender: geom.Point{X: 0, Y: 1}, Receiver: geom.Point{X: 10, Y: 1}, Rate: 1},
	})
	pp, err := sched.Prepare(ls, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Slots: 50, Arrivals: Trace{Counts: [][]int{{1, 1}}},
		Seed: 11, NoFading: true,
	}
	cfg.Policy = PolicyBacklog
	unweighted := mustRun(t, pp, cfg)
	cfg.Policy = PolicyMaxQueue
	weighted := mustRun(t, pp, cfg)
	// The geometry must actually conflict, or this test checks nothing.
	if unweighted.Attempts != 50 {
		t.Fatalf("links do not conflict: %d attempts over 50 slots, want 50", unweighted.Attempts)
	}
	// Rate-greedy starves link 1: every one of its 50 packets queued.
	if got := unweighted.PerLinkBacklog; got[0] != 0 || got[1] != 50 {
		t.Fatalf("rate-greedy backlog %v, want [0 50] (link 1 starved)", got)
	}
	// Longest-queue-first alternates: the backlog splits evenly.
	worst := 0
	for _, q := range weighted.PerLinkBacklog {
		worst = max(worst, q)
	}
	if worst > 26 {
		t.Errorf("longest-queue-first worst queue %d, want ≈ 25 (even split of %d)", worst, weighted.Backlog)
	}
	if weighted.Delivered != 50 {
		t.Errorf("longest-queue-first delivered %d of 50 service opportunities", weighted.Delivered)
	}
}

func TestEngineMetricsAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	pp := paperPrepared(t, 30, 31)
	res := mustRun(t, pp, Config{
		Slots: 100, Arrivals: Bernoulli{P: 0.1}, Seed: 12, Metrics: reg,
	})
	slots := reg.Counter("traffic_slots_total", "")
	if slots.Value() != 100 {
		t.Errorf("traffic_slots_total = %d, want 100", slots.Value())
	}
	arr := reg.Counter("traffic_arrivals_total", "")
	if arr.Value() != res.Arrived {
		t.Errorf("traffic_arrivals_total = %d, want %d", arr.Value(), res.Arrived)
	}
	// A second engine on the same registry accumulates.
	mustRun(t, pp, Config{Slots: 50, Arrivals: Bernoulli{P: 0.1}, Seed: 13, Metrics: reg})
	if slots.Value() != 150 {
		t.Errorf("after second run traffic_slots_total = %d, want 150", slots.Value())
	}
}

func TestTrajectoryBoundedAndOrdered(t *testing.T) {
	pp := paperPrepared(t, 40, 37)
	res := mustRun(t, pp, Config{
		Slots: 3000, Arrivals: Bernoulli{P: 0.2}, QueueCap: 4,
		TrajectoryPoints: 16, Seed: 14,
	})
	if len(res.Trajectory) == 0 || len(res.Trajectory) > 16 {
		t.Fatalf("trajectory has %d points, want 1..16", len(res.Trajectory))
	}
	for k := 1; k < len(res.Trajectory); k++ {
		if res.Trajectory[k].Slot <= res.Trajectory[k-1].Slot {
			t.Fatalf("trajectory slots not increasing: %+v", res.Trajectory)
		}
	}
	if res.Trajectory[0].Slot != 0 {
		t.Errorf("trajectory does not start at slot 0: %+v", res.Trajectory[0])
	}
}

// --- differential test against the legacy simnet implementation ---

// legacyRun is the retired simnet.Run, kept verbatim (sub-problem
// rebuild per slot and all) as the reference the engine's backlog
// policy must reproduce bit-for-bit on the same seed.
func legacyRun(t *testing.T, pr *sched.Problem, slots int, p float64, queueCap int, seed uint64, noFading bool) Result {
	t.Helper()
	n := pr.N()
	var res Result
	queues := make([][]int, n)
	arrivalSrc := rng.Stream(seed, "simnet-arrivals", 0)

	for slot := 0; slot < slots; slot++ {
		for i := 0; i < n; i++ {
			if arrivalSrc.Float64() < p {
				res.Arrived++
				if queueCap > 0 && len(queues[i]) >= queueCap {
					res.Dropped++
					continue
				}
				queues[i] = append(queues[i], slot)
			}
		}
		var backlogged []int
		for i := 0; i < n; i++ {
			if len(queues[i]) > 0 {
				backlogged = append(backlogged, i)
			}
		}
		if len(backlogged) == 0 {
			res.PerSlotDelivered.Add(0)
			continue
		}
		active := legacyScheduleSubset(t, pr, backlogged)
		if len(active) == 0 {
			res.PerSlotDelivered.Add(0)
			continue
		}
		success := legacyTransmit(pr, active, seed, slot, noFading)
		delivered := 0
		for k, i := range active {
			res.Attempts++
			if success[k] {
				arrivedAt := queues[i][0]
				queues[i] = queues[i][1:]
				res.Delivered++
				delivered++
				d := float64(slot - arrivedAt + 1)
				res.Delay.Add(d)
			} else {
				res.FailedTx++
			}
		}
		res.PerSlotDelivered.Add(float64(delivered))
	}
	for i := 0; i < n; i++ {
		res.Backlog += int64(len(queues[i]))
	}
	return res
}

func legacyScheduleSubset(t *testing.T, pr *sched.Problem, idxs []int) []int {
	t.Helper()
	if len(idxs) == pr.N() {
		return sched.Run(sched.Greedy{}, pr).Active
	}
	links := make([]network.Link, len(idxs))
	for k, i := range idxs {
		links[k] = pr.Links.Link(i)
	}
	ls, err := network.NewLinkSet(links)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sched.NewProblem(ls, pr.Params)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Run(sched.Greedy{}, sub)
	out := make([]int, 0, s.Len())
	for _, k := range s.Active {
		out = append(out, idxs[k])
	}
	return out
}

func legacyTransmit(pr *sched.Problem, active []int, seed uint64, slot int, noFading bool) []bool {
	out := make([]bool, len(active))
	if noFading {
		for k := range out {
			out[k] = true
		}
		return out
	}
	src := rng.Stream(seed, "simnet-channel", uint64(slot))
	m := len(active)
	gains := make([]float64, m)
	for j := 0; j < m; j++ {
		rj := active[j]
		for i := 0; i < m; i++ {
			mean := pr.Params.MeanGainP(pr.PowerOf(active[i]), pr.Links.Dist(active[i], rj))
			gains[i] = src.Exp(mean)
		}
		den := pr.Params.N0
		for i := 0; i < m; i++ {
			if i != j {
				den += gains[i]
			}
		}
		out[j] = den == 0 || gains[j]/den >= pr.Params.GammaTh
	}
	return out
}

func TestBacklogPolicyMatchesLegacySimnet(t *testing.T) {
	cases := []struct {
		name     string
		n, slots int
		p        float64
		queueCap int
		seed     uint64
		noFading bool
	}{
		{"light", 60, 150, 0.08, 0, 1, false},
		{"capped", 50, 120, 0.3, 2, 4, false},
		{"nofading", 40, 100, 0.1, 0, 7, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pp := paperPrepared(t, tc.n, tc.seed+100)
			want := legacyRun(t, pp.Problem(), tc.slots, tc.p, tc.queueCap, tc.seed, tc.noFading)
			got := mustRun(t, pp, Config{
				Slots: tc.slots, Arrivals: Bernoulli{P: tc.p}, QueueCap: tc.queueCap,
				Policy: PolicyBacklog, Seed: tc.seed, NoFading: tc.noFading,
			})
			if got.Arrived != want.Arrived || got.Delivered != want.Delivered ||
				got.Dropped != want.Dropped || got.FailedTx != want.FailedTx ||
				got.Backlog != want.Backlog || got.Attempts != want.Attempts {
				t.Errorf("counters diverged from legacy simnet:\n got %+v\nwant %+v", got, want)
			}
			if got.Delay != want.Delay {
				t.Errorf("delay summary diverged:\n got %+v\nwant %+v", got.Delay, want.Delay)
			}
			if got.PerSlotDelivered != want.PerSlotDelivered {
				t.Errorf("goodput series diverged:\n got %+v\nwant %+v", got.PerSlotDelivered, want.PerSlotDelivered)
			}
		})
	}
}
