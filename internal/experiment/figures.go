package experiment

import (
	"context"
	"fmt"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

// Paper sweep axes (§V): N from 100 to 500, α from 2.5 to 4.5, with
// the other parameter pinned at the paper's operating point.
var (
	paperNs     = []float64{100, 200, 300, 400, 500}
	paperAlphas = []float64{2.5, 3, 3.5, 4, 4.5}
)

const (
	pinnedN     = 300
	pinnedAlpha = 3
)

// fig5Algorithms are the four series of the paper's Fig. 5.
func fig5Algorithms() []sched.Algorithm {
	return []sched.Algorithm{
		sched.LDP{},
		sched.RLE{},
		sched.ApproxLogN{},
		sched.ApproxDiversity{},
	}
}

// fig6Algorithms are the throughput series. The paper's Fig. 6 caption
// and conclusion compare the centralized algorithms with the
// decentralized DLS, so the reconstruction is included as a series.
func fig6Algorithms() []sched.Algorithm {
	return []sched.Algorithm{
		sched.LDP{},
		sched.RLE{},
		sched.DLS{Seed: 1},
	}
}

func configN(x float64) (network.GenConfig, radio.Params) {
	return network.PaperConfig(int(x)), radio.DefaultParams()
}

func configAlpha(x float64) (network.GenConfig, radio.Params) {
	p := radio.DefaultParams()
	p.Alpha = x
	return network.PaperConfig(pinnedN), p
}

// Fig5a: failed transmissions vs number of links.
func Fig5a() Spec {
	return Spec{
		ID:         "fig5a",
		Title:      "Fig 5(a): failed transmissions vs number of links (alpha=3)",
		XLabel:     "links N",
		YLabel:     "failed transmissions per slot (Monte-Carlo)",
		Xs:         paperNs,
		Algorithms: fig5Algorithms(),
		Configure:  configN,
		Metric:     MetricMCFailures,
	}
}

// Fig5b: failed transmissions vs path-loss exponent.
func Fig5b() Spec {
	return Spec{
		ID:         "fig5b",
		Title:      "Fig 5(b): failed transmissions vs path-loss exponent (N=300)",
		XLabel:     "alpha",
		YLabel:     "failed transmissions per slot (Monte-Carlo)",
		Xs:         paperAlphas,
		Algorithms: fig5Algorithms(),
		Configure:  configAlpha,
		Metric:     MetricMCFailures,
	}
}

// Fig5aExpected is the analytic cross-check of Fig 5(a): same sweep,
// Theorem 3.1 expectation instead of simulation.
func Fig5aExpected() Spec {
	s := Fig5a()
	s.ID = "fig5a-analytic"
	s.Title = "Fig 5(a) cross-check: analytic expected failures (alpha=3)"
	s.YLabel = "expected failed transmissions per slot (Theorem 3.1)"
	s.Metric = MetricExpectedFailures
	return s
}

// Fig6a: throughput vs number of links.
func Fig6a() Spec {
	return Spec{
		ID:         "fig6a",
		Title:      "Fig 6(a): throughput vs number of links (alpha=3)",
		XLabel:     "links N",
		YLabel:     "throughput (unit rates: links scheduled)",
		Xs:         paperNs,
		Algorithms: fig6Algorithms(),
		Configure:  configN,
		Metric:     MetricThroughput,
	}
}

// Fig6b: throughput vs path-loss exponent.
func Fig6b() Spec {
	return Spec{
		ID:         "fig6b",
		Title:      "Fig 6(b): throughput vs path-loss exponent (N=300)",
		XLabel:     "alpha",
		YLabel:     "throughput (unit rates: links scheduled)",
		Xs:         paperAlphas,
		Algorithms: fig6Algorithms(),
		Configure:  configAlpha,
		Metric:     MetricThroughput,
	}
}

// AblationClasses compares the paper's nested length classes against
// the banded classes of [14] inside otherwise-identical LDP, plus the
// rate-greedy heuristic as an unstructured comparator.
func AblationClasses() Spec {
	return Spec{
		ID:     "ablation-classes",
		Title:  "Ablation: LDP nested vs banded classes, heterogeneous rates (alpha=3)",
		XLabel: "links N",
		YLabel: "throughput",
		Xs:     paperNs,
		Algorithms: []sched.Algorithm{
			sched.LDP{},
			sched.LDP{Banded: true},
			sched.Greedy{},
		},
		Configure: func(x float64) (network.GenConfig, radio.Params) {
			cfg := network.PaperConfig(int(x))
			cfg.RateMax = 8 // weighted objective is where class structure matters
			return cfg, radio.DefaultParams()
		},
		Metric: MetricThroughput,
	}
}

// AblationC2 sweeps RLE's budget split c₂ at the paper's operating
// point, quantifying the sensitivity the paper leaves unexplored.
func AblationC2() Spec {
	c2s := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	algos := make([]sched.Algorithm, len(c2s))
	for i, c := range c2s {
		algos[i] = sched.RLE{C2: c}
	}
	return Spec{
		ID:         "ablation-c2",
		Title:      "Ablation: RLE budget split c2 (N sweep, alpha=3)",
		XLabel:     "links N",
		YLabel:     "throughput",
		Xs:         paperNs,
		Algorithms: algos,
		Configure:  configN,
		Metric:     MetricThroughput,
	}
}

// AblationDLSRounds sweeps the DLS round budget, showing convergence of
// the decentralized protocol toward its fixed point.
func AblationDLSRounds() Spec {
	rounds := []int{1, 2, 4, 8, 16, 48}
	algos := make([]sched.Algorithm, len(rounds))
	for i, r := range rounds {
		algos[i] = dlsRounds{rounds: r}
	}
	return Spec{
		ID:         "ablation-dls",
		Title:      "Ablation: DLS round budget (N=300, alpha=3)",
		XLabel:     "links N",
		YLabel:     "throughput",
		Xs:         []float64{100, 300, 500},
		Algorithms: algos,
		Configure:  configN,
		Metric:     MetricThroughput,
	}
}

// dlsRounds wraps DLS with a labeled round budget so each budget is a
// distinct series.
type dlsRounds struct{ rounds int }

func (d dlsRounds) Name() string {
	return fmt.Sprintf("dls-%dr", d.rounds)
}

func (d dlsRounds) Solve(ctx context.Context, pr *sched.Problem, scr *sched.Scratch, dst []int) (sched.Schedule, error) {
	return sched.DLS{Seed: 1, Rounds: d.rounds}.Solve(ctx, pr, scr, dst)
}

// Specs returns every runnable experiment keyed by ID.
func Specs() map[string]Spec {
	out := map[string]Spec{}
	for _, s := range []Spec{
		Fig5a(), Fig5b(), Fig5aExpected(), Fig6a(), Fig6b(),
		AblationClasses(), AblationC2(), AblationDLSRounds(),
	} {
		out[s.ID] = s
	}
	return out
}
