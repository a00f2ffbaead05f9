package fadingrls_test

// Runnable godoc examples. Each uses a small hand-built instance so
// the output is deterministic and the examples double as tests.

import (
	"fmt"
	"os"

	fadingrls "repro"
)

// twoIslands builds two far-apart links plus one close pair, so some
// subsets are feasible and some are not.
func twoIslands() *fadingrls.LinkSet {
	ls, err := fadingrls.NewLinkSet([]fadingrls.Link{
		{Sender: fadingrls.Point{X: 0, Y: 0}, Receiver: fadingrls.Point{X: 10, Y: 0}, Rate: 1},
		{Sender: fadingrls.Point{X: 0, Y: 15}, Receiver: fadingrls.Point{X: 10, Y: 15}, Rate: 1},
		{Sender: fadingrls.Point{X: 5000, Y: 0}, Receiver: fadingrls.Point{X: 5010, Y: 0}, Rate: 2},
	})
	if err != nil {
		panic(err)
	}
	return ls
}

func ExampleVerify() {
	pr, _ := fadingrls.NewProblem(twoIslands(), fadingrls.DefaultParams())
	// Links 0 and 1 are 15 apart — far too close for the fading budget.
	bad := fadingrls.Schedule{Active: []int{0, 1}}
	fmt.Println("violations:", len(fadingrls.Verify(pr, bad)))
	// Links 0 and 2 are 5 km apart.
	good := fadingrls.Schedule{Active: []int{0, 2}}
	fmt.Println("violations:", len(fadingrls.Verify(pr, good)))
	// Output:
	// violations: 2
	// violations: 0
}

func ExampleExact_schedule() {
	pr, _ := fadingrls.NewProblem(twoIslands(), fadingrls.DefaultParams())
	s := fadingrls.Run(fadingrls.Exact{}, pr)
	// The optimum takes the rate-2 island link plus one of the close
	// pair — never both of the close pair.
	fmt.Println("throughput:", s.Throughput(pr))
	fmt.Println("feasible:", fadingrls.Feasible(pr, s))
	// Output:
	// throughput: 3
	// feasible: true
}

func ExampleSolve() {
	pr, _ := fadingrls.NewProblem(twoIslands(), fadingrls.DefaultParams())
	s, err := fadingrls.Solve("rle", pr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Println("algorithm:", s.Algorithm)
	fmt.Println("links scheduled:", s.Len())
	// Output:
	// algorithm: rle
	// links scheduled: 2
}

func ExampleSuccessProbabilities() {
	pr, _ := fadingrls.NewProblem(twoIslands(), fadingrls.DefaultParams())
	s := fadingrls.Schedule{Active: []int{0, 2}}
	for i, p := range fadingrls.SuccessProbabilities(pr, s) {
		fmt.Printf("link %d: %.6f\n", s.Active[i], p)
	}
	// Output:
	// link 0: 1.000000
	// link 2: 1.000000
}

func ExampleBuildMultiSlotPlan() {
	pr, _ := fadingrls.NewProblem(twoIslands(), fadingrls.DefaultParams())
	plan, _ := fadingrls.BuildMultiSlotPlan(pr, fadingrls.RLE{})
	fmt.Println("slots:", plan.NumSlots())
	fmt.Println("covered:", plan.TotalScheduled())
	// Output:
	// slots: 2
	// covered: 3
}

func ExampleRepair() {
	pr, _ := fadingrls.NewProblem(twoIslands(), fadingrls.DefaultParams())
	// Scheduling everything is infeasible; Repair prunes it down.
	all := fadingrls.Schedule{Active: []int{0, 1, 2}, Algorithm: "all"}
	fixed := fadingrls.Repair(pr, all)
	fmt.Println("feasible:", fadingrls.Feasible(pr, fixed))
	fmt.Println("kept:", fixed.Len())
	// Output:
	// feasible: true
	// kept: 2
}
