// Quickstart: build a small network, schedule it with the paper's two
// algorithms, verify feasibility, and inspect per-link success
// probabilities — the five-minute tour of the public API.
package main

import (
	"fmt"
	"log"

	fadingrls "repro"
)

func main() {
	// A 150-link deployment with the paper's parameters: senders
	// uniform in a 500×500 region, receivers 5–20 units away.
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(150), 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %d links, length diversity g(L) = %d\n\n", ls.Len(), ls.Diversity())

	for _, algo := range []fadingrls.Algorithm{fadingrls.LDP{}, fadingrls.RLE{}} {
		s := fadingrls.Run(algo, pr)
		fmt.Printf("%s\n", s)
		fmt.Printf("  throughput: %.0f   feasible: %v\n",
			s.Throughput(pr), fadingrls.Feasible(pr, s))

		// Every scheduled link is guaranteed ≥ 1−ε success probability.
		worst := 1.0
		for _, p := range fadingrls.SuccessProbabilities(pr, s) {
			if p < worst {
				worst = p
			}
		}
		fmt.Printf("  worst per-link success probability: %.5f (1−ε = %.5f)\n\n",
			worst, 1-pr.Params.Eps)
	}

	// Custom instances work too: two links, one far away.
	custom, err := fadingrls.NewLinkSet([]fadingrls.Link{
		{Sender: fadingrls.Point{X: 0, Y: 0}, Receiver: fadingrls.Point{X: 10, Y: 0}, Rate: 1},
		{Sender: fadingrls.Point{X: 400, Y: 400}, Receiver: fadingrls.Point{X: 408, Y: 400}, Rate: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	pr2, err := fadingrls.NewProblem(custom, fadingrls.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	s := fadingrls.Run(fadingrls.Exact{}, pr2)
	fmt.Printf("custom 2-link instance, exact optimum: %s (throughput %.0f)\n",
		s, s.Throughput(pr2))
}
