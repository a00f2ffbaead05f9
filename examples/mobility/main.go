// Mobility: why the paper cares about fading in the first place — node
// movement. Links roam under a random-waypoint model; a schedule
// computed once decays as the interference geometry churns, and the
// example measures how the rescheduling cadence trades control
// overhead against reliability.
package main

import (
	"fmt"
	"log"

	fadingrls "repro"
)

func main() {
	const (
		n       = 200
		horizon = 500 // slots simulated
		seed    = 41
	)
	ls, err := fadingrls.Generate(fadingrls.PaperConfig(n), seed, 0)
	if err != nil {
		log.Fatal(err)
	}
	params := fadingrls.DefaultParams()

	fmt.Println("mobility: 200 links, random waypoint at 1-10 units/slot, 500-slot horizon")
	fmt.Printf("%-22s %16s %22s\n", "rescheduling cadence", "reschedules", "mean E[failures]/slot")
	for _, every := range []int{1, 10, 50, 250, horizon + 1} {
		tr, err := fadingrls.NewMobilityTrace(ls, fadingrls.MobilityConfig{
			Region: 500, SpeedMin: 1, SpeedMax: 10, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		var (
			current     fadingrls.Schedule
			reschedules int
			totalEF     float64
		)
		for slot := 0; slot < horizon; slot++ {
			snap, err := tr.Snapshot()
			if err != nil {
				log.Fatal(err)
			}
			pr, err := fadingrls.NewProblem(snap, params)
			if err != nil {
				log.Fatal(err)
			}
			if slot%every == 0 {
				current = fadingrls.Run(fadingrls.RLE{}, pr)
				reschedules++
			}
			totalEF += fadingrls.ExpectedFailures(pr, current)
			tr.Advance(1)
		}
		label := fmt.Sprintf("every %d slots", every)
		if every > horizon {
			label = "never (schedule once)"
		}
		fmt.Printf("%-22s %16d %22.4f\n", label, reschedules, totalEF/horizon)
	}
	fmt.Println("\nreading: with per-slot rescheduling the fading budget holds continuously")
	fmt.Println("(≈0.005 expected failures, the ε-regime); holding one schedule for the")
	fmt.Println("whole horizon loses the guarantee entirely as nodes drift apart.")
}
