package network

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func twoLinks() []Link {
	return []Link{
		{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 10, Y: 0}, Rate: 1},
		{Sender: geom.Point{X: 100, Y: 0}, Receiver: geom.Point{X: 100, Y: 15}, Rate: 2},
	}
}

func TestNewLinkSetBasics(t *testing.T) {
	ls, err := NewLinkSet(twoLinks())
	if err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 2 {
		t.Fatalf("Len = %d", ls.Len())
	}
	if got := ls.Length(0); got != 10 {
		t.Errorf("Length(0) = %v, want 10", got)
	}
	if got := ls.Length(1); got != 15 {
		t.Errorf("Length(1) = %v, want 15", got)
	}
	// d_{0,1}: sender 0 at origin to receiver 1 at (100,15).
	want := math.Hypot(100, 15)
	if got := ls.Dist(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Dist(0,1) = %v, want %v", got, want)
	}
	// d_{1,0}: sender 1 at (100,0) to receiver 0 at (10,0).
	if got := ls.Dist(1, 0); got != 90 {
		t.Errorf("Dist(1,0) = %v, want 90", got)
	}
	if ls.Rate(1) != 2 {
		t.Errorf("Rate(1) = %v", ls.Rate(1))
	}
	if ls.UniformRate() {
		t.Error("rates 1,2 reported uniform")
	}
	if got := ls.TotalRate([]int{0, 1}); got != 3 {
		t.Errorf("TotalRate = %v", got)
	}
}

func TestNewLinkSetRejectsInvalid(t *testing.T) {
	cases := []struct {
		name  string
		links []Link
	}{
		{"zero rate", []Link{{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 1, Y: 0}, Rate: 0}}},
		{"negative rate", []Link{{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 1, Y: 0}, Rate: -1}}},
		{"infinite rate", []Link{{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 1, Y: 0}, Rate: math.Inf(1)}}},
		{"zero length", []Link{{Sender: geom.Point{X: 3, Y: 3}, Receiver: geom.Point{X: 3, Y: 3}, Rate: 1}}},
		{"NaN coord", []Link{{Sender: geom.Point{X: math.NaN(), Y: 0}, Receiver: geom.Point{X: 1, Y: 0}, Rate: 1}}},
		{"Inf coord", []Link{{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: math.Inf(1), Y: 0}, Rate: 1}}},
		{"dup sender", []Link{
			{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 1, Y: 0}, Rate: 1},
			{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 0, Y: 1}, Rate: 1},
		}},
		{"dup receiver", []Link{
			{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 1, Y: 0}, Rate: 1},
			{Sender: geom.Point{X: 5, Y: 5}, Receiver: geom.Point{X: 1, Y: 0}, Rate: 1},
		}},
	}
	for _, tc := range cases {
		if _, err := NewLinkSet(tc.links); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLinkSetEmpty(t *testing.T) {
	ls, err := NewLinkSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 0 {
		t.Error("empty set has nonzero length")
	}
	if _, err := ls.MinLength(); err == nil {
		t.Error("MinLength on empty must error")
	}
	if ls.MaxLength() != 0 {
		t.Error("MaxLength on empty must be 0")
	}
	if ls.Diversity() != 0 {
		t.Error("Diversity on empty must be 0")
	}
}

func TestMinMaxLength(t *testing.T) {
	ls := MustNewLinkSet(twoLinks())
	mn, err := ls.MinLength()
	if err != nil || mn != 10 {
		t.Errorf("MinLength = %v, %v", mn, err)
	}
	if mx := ls.MaxLength(); mx != 15 {
		t.Errorf("MaxLength = %v", mx)
	}
}

func TestSendersReceiversOrder(t *testing.T) {
	ls := MustNewLinkSet(twoLinks())
	s, r := ls.Senders(), ls.Receivers()
	if s[0] != (geom.Point{X: 0, Y: 0}) || s[1] != (geom.Point{X: 100, Y: 0}) {
		t.Errorf("senders = %v", s)
	}
	if r[0] != (geom.Point{X: 10, Y: 0}) || r[1] != (geom.Point{X: 100, Y: 15}) {
		t.Errorf("receivers = %v", r)
	}
}

func TestLinksReturnsCopy(t *testing.T) {
	ls := MustNewLinkSet(twoLinks())
	cp := ls.Links()
	cp[0].Rate = 99
	if ls.Rate(0) == 99 {
		t.Error("Links() aliases internal storage")
	}
}

func TestMustNewLinkSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewLinkSet did not panic on invalid input")
		}
	}()
	MustNewLinkSet([]Link{{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 0, Y: 0}, Rate: 1}})
}

// TestWithLinkMatchesNewLinkSet: replacing one link of a valid set on a
// small coordinate grid (so collisions with links on either side of the
// replaced index, zero lengths and signed zeros are common) must
// accept exactly what NewLinkSet accepts on the replaced list, with the
// same error text, and otherwise give the same links and lengths while
// leaving the original set untouched.
func TestWithLinkMatchesNewLinkSet(t *testing.T) {
	coord := func(k int) float64 {
		if k == 0 {
			return math.Copysign(0, -1)
		}
		return float64(k % 4)
	}
	var links []Link
	for i := 0; i < 8; i++ {
		links = append(links, Link{Sender: geom.Point{X: float64(i), Y: 0}, Receiver: geom.Point{X: float64(i), Y: 1}, Rate: 1})
	}
	ls := MustNewLinkSet(links)
	seed := uint64(1)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	accepted := 0
	for trial := 0; trial < 4000; trial++ {
		i := next(len(links))
		l := Link{
			Sender:   geom.Point{X: coord(next(9)), Y: coord(next(3))},
			Receiver: geom.Point{X: coord(next(9)), Y: coord(next(3))},
			Rate:     1,
		}
		repl := append([]Link(nil), links...)
		repl[i] = l
		want, wantErr := NewLinkSet(repl)
		got, err := ls.WithLink(i, l)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("replace %d with %+v: WithLink error %v, NewLinkSet error %v", i, l, err, wantErr)
		}
		if err != nil {
			continue
		}
		accepted++
		for k := range repl {
			if got.Link(k) != want.Link(k) || got.Length(k) != want.Length(k) {
				t.Fatalf("replace %d: link %d = %+v/%v, want %+v/%v", i, k, got.Link(k), got.Length(k), want.Link(k), want.Length(k))
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no replacement was valid; the grid exercises rejections only")
	}
	for k, l := range links {
		if ls.Link(k) != l {
			t.Fatalf("WithLink mutated the original set at %d", k)
		}
	}
	if _, err := ls.WithLink(len(links), links[0]); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}
