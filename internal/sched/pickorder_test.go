package sched

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
)

// stableReference is the pick order the key sort replaced: positions
// of cand sort.Stable-sorted by k1 ascending, ties by k2 ascending (k2
// nil: one key), remaining ties by position.
type stableReference struct {
	cand   []int
	k1, k2 []float64
}

func (s *stableReference) Len() int { return len(s.cand) }

func (s *stableReference) Less(a, b int) bool {
	if s.k1[a] != s.k1[b] || s.k2 == nil {
		return s.k1[a] < s.k1[b]
	}
	return s.k2[a] < s.k2[b]
}

func (s *stableReference) Swap(a, b int) {
	s.cand[a], s.cand[b] = s.cand[b], s.cand[a]
	s.k1[a], s.k1[b] = s.k1[b], s.k1[a]
	if s.k2 != nil {
		s.k2[a], s.k2[b] = s.k2[b], s.k2[a]
	}
}

// referencePickOrder is pickOrder computed through sort.Stable.
func referencePickOrder(pr *Problem, sel Selection) []int {
	ref := &stableReference{}
	for i := 0; i < pr.N(); i++ {
		if !sel.admits(i) {
			continue
		}
		ref.cand = append(ref.cand, i)
		if sel.Weights == nil {
			ref.k1 = append(ref.k1, -pr.Links.Rate(i))
			ref.k2 = append(ref.k2, pr.Links.Length(i))
		} else {
			ref.k1 = append(ref.k1, -sel.Weights[i])
			ref.k2 = append(ref.k2, -pr.Links.Rate(i))
		}
	}
	sort.Stable(ref)
	return ref.cand
}

// tiedLinks builds n links whose rates and lengths take only a few
// values, so the pick-order keys tie constantly.
func tiedLinks(t *testing.T, n int, r *rng.Source) *network.LinkSet {
	t.Helper()
	links := make([]network.Link, n)
	for i := range links {
		s := geom.Point{X: float64(20 * i), Y: float64(r.IntN(3))}
		links[i] = network.Link{
			Sender:   s,
			Receiver: geom.Point{X: s.X + float64(3+4*r.IntN(2)), Y: s.Y},
			Rate:     float64(1 + r.IntN(3)),
		}
	}
	ls, err := network.NewLinkSet(links)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// TestPickOrderMatchesStableSort pins the key sort to the sort.Stable
// order it replaced: greedy's (rate, length) order, the masked and
// weighted Selection orders, and RLE's length order, on instances
// built to tie in rate and length (and weights with ties, zeros and
// negatives), plus a generated instance without ties.
func TestPickOrderMatchesStableSort(t *testing.T) {
	r := rng.New(17)
	gen, err := network.Generate(network.PaperConfig(400), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	instances := []*network.LinkSet{gen}
	for _, n := range []int{1, 2, 23, 24, 25, 300} {
		instances = append(instances, tiedLinks(t, n, r))
	}
	scr := new(Scratch)
	for _, ls := range instances {
		pr := MustNewProblem(ls, radio.DefaultParams())
		n := pr.N()
		sels := []Selection{{}}
		for trial := 0; trial < 4; trial++ {
			mask := make([]bool, n)
			weights := make([]float64, n)
			for i := range mask {
				mask[i] = r.IntN(3) > 0
				weights[i] = []float64{-1, 0, 0.5, 2, 2, 7}[r.IntN(6)]
			}
			sels = append(sels, Selection{Mask: mask}, Selection{Weights: weights}, Selection{Mask: mask, Weights: weights})
		}
		for k, sel := range sels {
			want := referencePickOrder(pr, sel)
			if got := pickOrder(pr, scr, sel); !slices.Equal(got, want) {
				t.Fatalf("n=%d selection %d: pickOrder %v, sort.Stable %v", n, k, got, want)
			}
		}
		ref := &stableReference{}
		for i := 0; i < n; i++ {
			ref.cand = append(ref.cand, i)
			ref.k1 = append(ref.k1, pr.Links.Length(i))
		}
		sort.Stable(ref)
		if got := lengthOrder(pr, scr); !slices.Equal(got, ref.cand) {
			t.Fatalf("n=%d: lengthOrder %v, sort.Stable %v", n, got, ref.cand)
		}
	}
}
