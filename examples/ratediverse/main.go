// Ratediverse: heterogeneous data rates — the general Fading-R-LS
// objective where throughput is a weighted sum, not a link count. LDP
// is the paper's algorithm for this case (RLE's guarantee only covers
// uniform rates); the example compares it against the banded-class
// variant of [14], the rate-greedy heuristic, and (on a subsample) the
// exact optimum.
package main

import (
	"fmt"
	"log"

	fadingrls "repro"
)

func main() {
	const seed = 99
	cfg := fadingrls.PaperConfig(250)
	cfg.RateMax = 10 // rates uniform in [1, 10]
	ls, err := fadingrls.Generate(cfg, seed, 0)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weighted instance: %d links, rates in [1,10], g(L)=%d\n\n", ls.Len(), ls.Diversity())

	fmt.Printf("%-14s %8s %14s %12s\n", "algorithm", "links", "throughput", "feasible")
	for _, a := range []fadingrls.Algorithm{
		fadingrls.LDP{},
		fadingrls.LDP{Banded: true},
		fadingrls.Greedy{},
		fadingrls.RLE{}, // still feasible, just not guarantee-covered
	} {
		s := fadingrls.Run(a, pr)
		fmt.Printf("%-14s %8d %14.1f %12v\n",
			a.Name(), s.Len(), s.Throughput(pr), fadingrls.Feasible(pr, s))
	}

	// On a small weighted sub-instance the exact optimum is tractable:
	// how much do the heuristics leave on the table?
	smallCfg := fadingrls.PaperConfig(14)
	smallCfg.Region = 150
	smallCfg.RateMax = 10
	small, err := fadingrls.Generate(smallCfg, seed, 1)
	if err != nil {
		log.Fatal(err)
	}
	prS, err := fadingrls.NewProblem(small, fadingrls.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	opt := fadingrls.Run(fadingrls.Exact{}, prS).Throughput(prS)
	fmt.Printf("\n14-link dense sub-instance, exact optimum = %.1f\n", opt)
	for _, a := range []fadingrls.Algorithm{fadingrls.LDP{}, fadingrls.Greedy{}} {
		v := fadingrls.Run(a, prS).Throughput(prS)
		fmt.Printf("  %-10s %.1f  (OPT/alg = %.2f, proven LDP bound 16·g = %.0f)\n",
			a.Name(), v, opt/v, 16*float64(small.Diversity()))
	}
}
