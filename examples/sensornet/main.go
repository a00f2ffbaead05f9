// Sensornet: the paper's motivating uniform-rate workload — sensors
// periodically reporting to nearby aggregation nodes — scheduled by a
// fading-aware algorithm (RLE) and by the two deterministic-SINR
// baselines, then exposed to an actual Rayleigh channel.
//
// The output is the paper's Fig. 5 story on one concrete deployment:
// the baselines activate more links but a measurable fraction of their
// transmissions fail every slot, while RLE's failures stay below ε.
package main

import (
	"fmt"
	"log"

	fadingrls "repro"
)

func main() {
	const (
		sensors = 400
		seed    = 2017
		slots   = 500
	)
	// Clustered deployment: sensors bunch around 6 hot spots, the
	// regime where accumulated interference punishes non-fading models
	// hardest.
	cfg := fadingrls.PaperConfig(sensors)
	cfg.Clusters, cfg.ClusterSpread = 6, 25
	ls, err := fadingrls.Generate(cfg, seed, 0)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor network: %d uniform-rate links in 6 clusters\n", ls.Len())
	fmt.Printf("channel: Rayleigh fading, alpha=%g, decoding threshold %g, target error %g\n\n",
		pr.Params.Alpha, pr.Params.GammaTh, pr.Params.Eps)

	algos := []fadingrls.Algorithm{
		fadingrls.RLE{},
		fadingrls.DLS{Seed: seed},
		fadingrls.ApproxLogN{},
		fadingrls.ApproxDiversity{},
	}
	fmt.Printf("%-18s %8s %10s %14s %16s\n",
		"algorithm", "links", "feasible", "fails/slot", "failure rate")
	for _, a := range algos {
		s := fadingrls.Run(a, pr)
		res, err := fadingrls.Simulate(pr, s, fadingrls.SimConfig{Slots: slots, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %8d %10v %14.3f %15.2f%%\n",
			a.Name(), s.Len(), fadingrls.Feasible(pr, s),
			res.Failures.Mean(), 100*res.FailureRate())
	}

	fmt.Println("\nreading: the deterministic baselines pack more concurrent sensors,")
	fmt.Println("but under fading a slice of their reports is lost every slot; the")
	fmt.Println("fading-aware schedules deliver ≈100% of what they promise.")
}
