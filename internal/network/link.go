package network

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Link is one transmission request from a dedicated sender to a
// dedicated receiver (the paper forbids shared endpoints).
type Link struct {
	Sender   geom.Point `json:"sender"`
	Receiver geom.Point `json:"receiver"`
	// Rate is the data rate λ_i the link contributes to the throughput
	// objective when scheduled. The paper's evaluation uses 1 for all
	// links; LDP supports arbitrary positive rates.
	Rate float64 `json:"rate"`
	// Power is this sender's transmit power. Zero (the common case and
	// the paper's model) means "use the instance-wide power from
	// radio.Params"; a positive value overrides it, enabling the
	// heterogeneous-power extension. Negative or non-finite values are
	// rejected at construction.
	Power float64 `json:"power,omitempty"`
}

// Length returns the link length d_ii.
func (l Link) Length() float64 {
	return l.Sender.Dist(l.Receiver)
}

// LinkSet is an immutable Fading-R-LS instance: a slice of links plus
// cached per-link geometry. Construct with NewLinkSet; the zero value
// is an empty instance.
//
// Pairwise sender→receiver distances are computed on demand rather
// than cached: an n×n matrix is O(n²) memory (80 GB of float64 at
// n = 10⁵), which would cap instance sizes long before the sparse
// interference backends do, and a distance is only a handful of
// arithmetic operations.
type LinkSet struct {
	links []Link
	// length[i] is the link length d_{i,i}, cached because every
	// algorithm reads it in sorting and class decomposition hot paths.
	length []float64
	n      int
}

// NewLinkSet validates and indexes an instance. It rejects links with
// non-positive rates, zero-length links (the model's d^{−α} diverges),
// and NaN/Inf coordinates. Duplicate sender or receiver locations
// across different links are rejected too, mirroring the paper's
// s_i ≠ s_j, r_i ≠ r_j assumption — coincident nodes make d_{i,j} = 0
// for i ≠ j, which no schedule containing both can survive.
func NewLinkSet(links []Link) (*LinkSet, error) {
	n := len(links)
	ls := &LinkSet{
		links:  append([]Link(nil), links...),
		length: make([]float64, n),
		n:      n,
	}
	seenS := make(map[geom.Point]int, n)
	seenR := make(map[geom.Point]int, n)
	for i, l := range ls.links {
		if err := checkLink(i, l); err != nil {
			return nil, err
		}
		if j, dup := seenS[l.Sender]; dup {
			return nil, fmt.Errorf("links %d and %d share sender location %v", j, i, l.Sender)
		}
		if j, dup := seenR[l.Receiver]; dup {
			return nil, fmt.Errorf("links %d and %d share receiver location %v", j, i, l.Receiver)
		}
		seenS[l.Sender] = i
		seenR[l.Receiver] = i
		ls.length[i] = l.Length()
	}
	return ls, nil
}

// checkLink is NewLinkSet's per-link validation of link i.
func checkLink(i int, l Link) error {
	if !(l.Rate > 0) || math.IsInf(l.Rate, 1) {
		return fmt.Errorf("link %d: rate %v must be positive and finite", i, l.Rate)
	}
	if l.Power < 0 || math.IsInf(l.Power, 1) || math.IsNaN(l.Power) {
		return fmt.Errorf("link %d: power %v must be zero (default) or positive and finite", i, l.Power)
	}
	for _, v := range []float64{l.Sender.X, l.Sender.Y, l.Receiver.X, l.Receiver.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("link %d: non-finite coordinate", i)
		}
	}
	if l.Length() <= 0 {
		return fmt.Errorf("link %d: zero-length link at %v", i, l.Sender)
	}
	return nil
}

// WithLink returns a copy of ls with link i replaced by l. It accepts
// and rejects exactly what NewLinkSet would on the replaced list, with
// the same error, but in O(n) without maps: the other n−1 links are
// already valid and pairwise distinct, so only l is checked — itself,
// then against each other link in the order NewLinkSet's scan would
// reach the collision.
func (ls *LinkSet) WithLink(i int, l Link) (*LinkSet, error) {
	if i < 0 || i >= ls.n {
		return nil, fmt.Errorf("link %d out of range [0,%d)", i, ls.n)
	}
	if err := checkLink(i, l); err != nil {
		return nil, err
	}
	// NewLinkSet reports a collision at the later link of the pair:
	// for k < i at link i (sender before receiver), for k > i at link
	// k, printing that later link's location.
	for k := 0; k < i; k++ {
		if ls.links[k].Sender == l.Sender {
			return nil, fmt.Errorf("links %d and %d share sender location %v", k, i, l.Sender)
		}
	}
	for k := 0; k < i; k++ {
		if ls.links[k].Receiver == l.Receiver {
			return nil, fmt.Errorf("links %d and %d share receiver location %v", k, i, l.Receiver)
		}
	}
	for k := i + 1; k < ls.n; k++ {
		if o := ls.links[k]; o.Sender == l.Sender {
			return nil, fmt.Errorf("links %d and %d share sender location %v", i, k, o.Sender)
		} else if o.Receiver == l.Receiver {
			return nil, fmt.Errorf("links %d and %d share receiver location %v", i, k, o.Receiver)
		}
	}
	next := &LinkSet{
		links:  append([]Link(nil), ls.links...),
		length: append([]float64(nil), ls.length...),
		n:      ls.n,
	}
	next.links[i] = l
	next.length[i] = l.Length()
	return next, nil
}

// MustNewLinkSet is NewLinkSet for inputs known valid at construction
// (generators, tests); it panics on error.
func MustNewLinkSet(links []Link) *LinkSet {
	ls, err := NewLinkSet(links)
	if err != nil {
		panic(err)
	}
	return ls
}

// Len returns the number of links N.
func (ls *LinkSet) Len() int { return ls.n }

// Link returns link i.
func (ls *LinkSet) Link(i int) Link { return ls.links[i] }

// Links returns a copy of the link slice.
func (ls *LinkSet) Links() []Link { return append([]Link(nil), ls.links...) }

// Dist returns d_{i,j}: the distance from sender i to receiver j.
func (ls *LinkSet) Dist(i, j int) float64 {
	if i == j {
		return ls.length[i]
	}
	return ls.links[i].Sender.Dist(ls.links[j].Receiver)
}

// Length returns the length d_{i,i} of link i.
func (ls *LinkSet) Length(i int) float64 { return ls.length[i] }

// Rate returns λ_i.
func (ls *LinkSet) Rate(i int) float64 { return ls.links[i].Rate }

// Power returns link i's transmit-power override (0 = use the
// instance-wide default from the radio parameters).
func (ls *LinkSet) Power(i int) float64 { return ls.links[i].Power }

// UniformPower reports whether every link uses the default power — the
// paper's model, and the case the LDP/RLE guarantees are proven for.
func (ls *LinkSet) UniformPower() bool {
	for i := 0; i < ls.n; i++ {
		if ls.links[i].Power != 0 {
			return false
		}
	}
	return true
}

// TotalRate sums λ over the given link indices.
func (ls *LinkSet) TotalRate(idxs []int) float64 {
	var sum float64
	for _, i := range idxs {
		sum += ls.links[i].Rate
	}
	return sum
}

// MinLength returns δ, the shortest link length (the paper's class
// anchor), or an error on an empty instance.
func (ls *LinkSet) MinLength() (float64, error) {
	if ls.n == 0 {
		return 0, errors.New("network: empty link set has no minimum length")
	}
	m := ls.Length(0)
	for i := 1; i < ls.n; i++ {
		m = math.Min(m, ls.Length(i))
	}
	return m, nil
}

// MaxLength returns the longest link length (0 on empty instance).
func (ls *LinkSet) MaxLength() float64 {
	var m float64
	for i := 0; i < ls.n; i++ {
		m = math.Max(m, ls.Length(i))
	}
	return m
}

// Senders returns the sender locations in link order.
func (ls *LinkSet) Senders() []geom.Point {
	out := make([]geom.Point, ls.n)
	for i, l := range ls.links {
		out[i] = l.Sender
	}
	return out
}

// Receivers returns the receiver locations in link order.
func (ls *LinkSet) Receivers() []geom.Point {
	out := make([]geom.Point, ls.n)
	for i, l := range ls.links {
		out[i] = l.Receiver
	}
	return out
}

// UniformRate reports whether every link has the same data rate — the
// special case the RLE guarantee (Theorem 4.4) is stated for.
func (ls *LinkSet) UniformRate() bool {
	for i := 1; i < ls.n; i++ {
		if ls.links[i].Rate != ls.links[0].Rate {
			return false
		}
	}
	return true
}
