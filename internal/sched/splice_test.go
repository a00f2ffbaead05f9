package sched

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/radio"
)

// spliceStep is one link-count change: remove link remove (≥ 0), or
// append add.
type spliceStep struct {
	remove int
	add    network.Link
}

// applySplice applies st to pr through Problem.Splice.
func applySplice(t *testing.T, pr *Problem, st spliceStep) *Problem {
	t.Helper()
	links := pr.Links.Links()
	if st.remove >= 0 {
		links = append(links[:st.remove], links[st.remove+1:]...)
	} else {
		links = append(links, st.add)
	}
	ls, err := network.NewLinkSet(links)
	if err != nil {
		t.Fatal(err)
	}
	next, err := pr.Splice(context.Background(), ls, st.remove)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// firstBitDiff returns the first index where a and b differ bitwise
// (or in length), -1 when they are identical.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestDenseSpliceMatchesBuild is the splice oracle: a dense field
// spliced through Problem.Splice — removals at the first, a middle and
// the last index, an append, an append after a removal, and splices
// after a prior Rebind — must equal a fresh build of the new link set
// bit for bit (factor matrix, noise terms, powers, receiver constants),
// against both the serial fill and the parallel fill at GOMAXPROCS.
func TestDenseSpliceMatchesBuild(t *testing.T) {
	const n = 260 // above denseParallelThreshold: the fresh build runs the band-pair fill
	p := radio.DefaultParams()
	base, err := network.Generate(network.PaperConfig(n), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := network.Generate(network.PaperConfig(3), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	add := func(k int) spliceStep { return spliceStep{remove: -1, add: extra.Link(k)} }
	rm := func(i int) spliceStep { return spliceStep{remove: i} }
	cases := []struct {
		name   string
		rebind bool
		steps  []spliceStep
	}{
		{"remove first", false, []spliceStep{rm(0)}},
		{"remove middle", false, []spliceStep{rm(n / 2)}},
		{"remove last", false, []spliceStep{rm(n - 1)}},
		{"add", false, []spliceStep{add(0)}},
		{"add after remove", false, []spliceStep{rm(17), add(1)}},
		{"remove after rebind", true, []spliceStep{rm(3)}},
		{"add after rebind", true, []spliceStep{add(2), rm(n)}},
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, tc := range cases {
			pr := MustNewProblem(base, p)
			if tc.rebind {
				links := pr.Links.Links()
				links[3].Sender = geom.Point{X: links[3].Sender.X + 11, Y: links[3].Sender.Y - 4}
				links[40].Receiver = geom.Point{X: links[40].Receiver.X - 2, Y: links[40].Receiver.Y + 3}
				if err := pr.Rebind(network.MustNewLinkSet(links), []int{3, 40}); err != nil {
					t.Fatal(err)
				}
			}
			old := pr.field.(*DenseField)
			for _, st := range tc.steps {
				pr = applySplice(t, pr, st)
			}
			got := pr.field.(*DenseField)
			want := newDenseFieldWorkers(context.Background(), pr.Links, p, workers)
			if got.n != want.n {
				t.Fatalf("%s/workers=%d: n = %d, want %d", tc.name, workers, got.n, want.n)
			}
			for _, v := range []struct {
				name      string
				got, want []float64
			}{
				{"factor", got.factor, want.factor},
				{"noise", got.noise, want.noise},
				{"power", got.power, want.power},
				{"kc", got.kc, want.kc},
			} {
				if i := firstBitDiff(v.got, v.want); i >= 0 {
					t.Fatalf("%s/workers=%d: %s differs from a fresh build at %d", tc.name, workers, v.name, i)
				}
			}
			if &got.factor[0] == &old.factor[0] {
				t.Fatalf("%s: spliced field shares the old matrix", tc.name)
			}
		}
	}
}

// TestSpliceNonDenseRebuilds pins Splice's fallback: a sparse problem
// is rebuilt over the new link set, matching a fresh sparse build.
func TestSpliceNonDenseRebuilds(t *testing.T) {
	p := radio.DefaultParams()
	opt := WithSparseField(SparseOptions{})
	ls, err := network.Generate(network.PaperConfig(60), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := MustNewProblem(ls, p, opt)
	pr = applySplice(t, pr, spliceStep{remove: 7})
	want := MustNewProblem(pr.Links, p, opt)
	if pr.FieldName() != "sparse" || pr.Incremental() {
		t.Fatalf("spliced sparse problem: field %q, incremental %v", pr.FieldName(), pr.Incremental())
	}
	for i := 0; i < pr.N(); i++ {
		for j := 0; j < pr.N(); j++ {
			if pr.Factor(i, j) != want.Factor(i, j) {
				t.Fatalf("Factor(%d,%d) = %v, fresh %v", i, j, pr.Factor(i, j), want.Factor(i, j))
			}
		}
	}
}

// TestSpliceRejectsInconsistentLinks: Splice refuses a link set that is
// not the old one with exactly the named change, leaving pr usable.
func TestSpliceRejectsInconsistentLinks(t *testing.T) {
	ls, err := network.Generate(network.PaperConfig(20), 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := MustNewProblem(ls, radio.DefaultParams())
	links := ls.Links()
	moved := append([]network.Link(nil), links[1:]...)
	moved[4].Sender.X += 1
	for _, tc := range []struct {
		name    string
		links   []network.Link
		removed int
		want    string
	}{
		{"count mismatch", links, -1, "link count"},
		{"removed out of range", links[1:], 20, "out of range"},
		{"wrong link removed", links[1:], 5, "changed kept link"},
		{"kept link moved", moved, 0, "changed kept link"},
	} {
		_, err := pr.Splice(context.Background(), network.MustNewLinkSet(tc.links), tc.removed)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if pr.N() != 20 {
		t.Fatalf("rejected splice changed the problem: N = %d", pr.N())
	}
}
