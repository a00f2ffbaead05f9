package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/network"
	"repro/internal/radio"
)

// exactCheck re-checks a schedule against Corollary 3.1 with factors
// computed directly from the link geometry, independent of whichever
// interference field (dense or truncated sparse) the server used. It
// returns whether every scheduled receiver meets its budget and the
// expected number of packets delivered per slot, Σ λ_j·Pr(success_j)
// under Theorem 3.1.
func exactCheck(links []network.Link, active []int, p radio.Params) (feasible bool, goodput float64) {
	loads := make([]float64, len(active))
	workers := runtime.GOMAXPROCS(0)
	if len(active) < 512 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(active); k += workers {
				j := active[k]
				rj := links[j].Receiver
				djj := links[j].Length()
				var sum, comp float64 // Kahan summation
				for _, i := range active {
					if i == j {
						continue
					}
					y := p.InterferenceFactor(links[i].Sender.Dist(rj), djj) - comp
					t := sum + y
					comp = (t - sum) - y
					sum = t
				}
				loads[k] = sum + p.NoiseFactor(djj)
			}
		}(w)
	}
	wg.Wait()
	feasible = true
	for k, j := range active {
		if !p.Informed(loads[k]) {
			feasible = false
		}
		goodput += links[j].Rate * math.Exp(-loads[k])
	}
	return feasible, goodput
}

// checkActive validates the shape of an activation set: strictly
// ascending indices inside [0, n).
func checkActive(active []int, n int) error {
	for k, i := range active {
		if i < 0 || i >= n {
			return fmt.Errorf("active link %d outside [0,%d)", i, n)
		}
		if k > 0 && active[k-1] >= i {
			return fmt.Errorf("active set not strictly ascending at %d", k)
		}
	}
	return nil
}

// failures keeps the first few messages of failed output checks for
// the report.
type failures struct {
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}
