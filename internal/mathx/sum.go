package mathx

import "sort"

// Accumulator is a Neumaier (improved Kahan) compensated summation
// accumulator. The zero value is an empty sum ready to use.
//
// Feasibility checks add up to N−1 interference factors spanning many
// orders of magnitude (a factor from a sender across the deployment
// region can be 10^6 times smaller than one from an adjacent square);
// naive summation loses enough precision to flip feasibility verdicts
// right at the γ_ε boundary, which the property tests in this package
// demonstrate. Neumaier summation keeps the error at one ulp of the
// true sum regardless of ordering.
type Accumulator struct {
	sum float64
	c   float64 // running compensation for lost low-order bits
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	t := a.sum + x
	if abs(a.sum) >= abs(x) {
		a.c += (a.sum - t) + x
	} else {
		a.c += (x - t) + a.sum
	}
	a.sum = t
}

// Sum returns the compensated total of everything added so far.
func (a *Accumulator) Sum() float64 { return a.sum + a.c }

// Reset returns the accumulator to the empty state.
func (a *Accumulator) Reset() { a.sum, a.c = 0, 0 }

// SumCompensated sums xs with Neumaier compensation. It is the one-shot
// convenience form of Accumulator.
func SumCompensated(xs []float64) float64 {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.Sum()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Median returns the median of xs (mean of the two middle elements for
// even length, 0 for empty input) without mutating the input. The
// sparse interference backend uses it to derive a spatial-index cell
// side from the per-receiver truncation radii; a median is robust to
// the heavy-tailed radius distributions heterogeneous powers produce.
func Median(xs []float64) float64 {
	return MedianInPlace(append([]float64(nil), xs...))
}

// MedianInPlace is Median computed by sorting xs itself instead of a
// copy: the allocation-free form for callers that own the buffer.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sortFloats(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sortFloats is insertion sort for small inputs and quicksort-by-stdlib
// otherwise; isolated so Median carries no sort import on hot paths.
func sortFloats(xs []float64) {
	if len(xs) < 24 {
		for i := 1; i < len(xs); i++ {
			for k := i; k > 0 && xs[k] < xs[k-1]; k-- {
				xs[k], xs[k-1] = xs[k-1], xs[k]
			}
		}
		return
	}
	sort.Float64s(xs)
}
