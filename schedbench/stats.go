package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of ascending xs by linear
// interpolation between closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// how run-to-run spread is judged; fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := float64((n+1)*i) / 4
		j := int(math.Floor(m))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := m - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

// tail is a latency tail: the highest percentile of tailLadder that
// leaves at least ten samples beyond it. With fewer than twenty
// samples no percentile qualifies and the tail is the maximum.
type tail struct {
	label   string // "p99", "max", ...
	value   float64
	samples int
}

var tailLadder = []struct {
	q     float64
	label string
}{{0.9999, "p99.99"}, {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}}

func latencyTail(ms []float64) tail {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	n := len(s)
	for _, l := range tailLadder {
		if float64(n)*(1-l.q) >= 10 {
			return tail{label: l.label, value: quantile(s, l.q), samples: n}
		}
	}
	if n == 0 {
		return tail{label: "max", samples: 0}
	}
	return tail{label: "max", value: s[n-1], samples: n}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
