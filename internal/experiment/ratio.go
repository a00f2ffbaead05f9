package experiment

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

// RatioTable measures empirical approximation ratios OPT/ALG on
// exactly-solvable instances (Table A of DESIGN.md): small dense
// deployments where the branch-and-bound optimum is tractable. Ratios
// are computed per instance and then summarized, which is the
// statistically meaningful aggregation (a ratio of means would mix
// instances of different hardness).
//
// The table doubles as the empirical audit of Theorems 4.2 and 4.4;
// EXPERIMENTS.md records where the paper's literal Theorem 4.4
// constant is exceeded.
func RatioTable(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	ns := []float64{8, 10, 12, 14}
	algos := []sched.Algorithm{sched.LDP{}, sched.RLE{}, sched.Greedy{}, sched.DLS{Seed: 1}}
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = "OPT/" + a.Name()
	}
	table := NewTable(
		"Table A: empirical approximation ratios on exact-solvable instances (region 120, alpha=3)",
		"links N", "OPT/ALG throughput ratio", ns, names)
	return runCustom(table, ns, opts, func(xi, rep int, add func(series string, y float64)) error {
		n := int(ns[xi])
		cfg := network.PaperConfig(n)
		cfg.Region = 120 // dense enough for real conflicts
		ls, err := network.Generate(cfg, opts.Seed, pairIndex(xi, rep))
		if err != nil {
			return err
		}
		pr, err := sched.NewProblem(ls, radio.DefaultParams())
		if err != nil {
			return err
		}
		opt := sched.Run(sched.Exact{}, pr).Throughput(pr)
		for ai, a := range algos {
			alg := sched.Run(a, pr).Throughput(pr)
			if alg <= 0 {
				return fmt.Errorf("ratio: %s scheduled nothing on n=%d rep=%d", a.Name(), n, rep)
			}
			add(names[ai], opt/alg)
		}
		return nil
	})
}
