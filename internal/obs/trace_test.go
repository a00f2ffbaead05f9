package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTracerCollectsPhasesAndCounters(t *testing.T) {
	tr := NewTracer()
	root := tr.Root()
	root.SetStr(KeyAlgorithm, "exact")
	root.Add(KeyLinks, 20)
	sp := root.Child("search")
	time.Sleep(time.Millisecond)
	sp.Add(KeyNodesExpanded, 100)
	sp.Add(KeyNodesExpanded, 50)
	sp.Add(KeyBoundCutoffs, 7)
	// A phase attribute under a counter's key is not a counter.
	sp.SetInt(KeyLinks, 999)
	sp.End()

	st := tr.Stats()
	if st.Algorithm != "exact" {
		t.Errorf("algorithm = %q", st.Algorithm)
	}
	if len(st.Phases) != 1 || st.Phases[0].Name != "search" || st.Phases[0].Seconds <= 0 {
		t.Errorf("phases = %+v", st.Phases)
	}
	if st.Counter(KeyNodesExpanded) != 150 || st.Counter(KeyBoundCutoffs) != 7 {
		t.Errorf("counters = %v", st.Counters)
	}
	if st.Counter(KeyLinks) != 20 {
		t.Errorf("SetInt leaked into the links counter: %v", st.Counters)
	}
	if st.Counter("missing") != 0 {
		t.Error("missing counter not zero")
	}
}

// TestTracerRepeatedPhasesAccumulate: same-named spans merge into one
// phase, and phases are listed in order of first start.
func TestTracerRepeatedPhasesAccumulate(t *testing.T) {
	tr := NewTracer()
	for _, name := range []string{"round", "settle", "round", "round"} {
		sp := tr.Root().Child(name)
		sp.Add(KeyRounds, 1)
		sp.End()
	}
	st := tr.Stats()
	if len(st.Phases) != 2 || st.Phases[0].Name != "round" || st.Phases[1].Name != "settle" {
		t.Errorf("repeated phase not merged in first-start order: %+v", st.Phases)
	}
	if st.Counter(KeyRounds) != 4 {
		t.Errorf("rounds = %d, want 4", st.Counter(KeyRounds))
	}
}

func TestTracerStatsJSONShape(t *testing.T) {
	tr := NewTracer()
	tr.Root().SetStr(KeyAlgorithm, "dls")
	tr.Root().Add(KeyRounds, 12)
	b, err := json.Marshal(tr.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var back SolveStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "dls" || back.Counter(KeyRounds) != 12 {
		t.Errorf("round-trip lost data: %s", b)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Trace
	if tr.Stats() != nil {
		t.Error("nil trace returned non-nil stats")
	}
	root := TracerFrom(context.Background())
	if root.Enabled() {
		t.Fatal("context without a tracer yielded a live span")
	}
	root.SetStr(KeyAlgorithm, "x")
	root.Add(KeyLinks, 5)
	sp := root.Child("p")
	sp.Add(KeyAdmitted, 1)
	sp.End()
	var st *SolveStats
	if st.Counter(KeyLinks) != 0 {
		t.Error("nil stats counter not zero")
	}
}

// TestTracerDisabledAllocs is the alloc guard behind the <1% overhead
// claim: the full per-solve call pattern on a context without a tracer
// — TracerFrom, the dispatcher's root stamps, a phase span with its
// counters — must allocate nothing. scripts/check.sh runs this (and
// BenchmarkTracerDisabled) as the obs-overhead gate.
func TestTracerDisabledAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		root := TracerFrom(ctx)
		root.SetStr(KeyAlgorithm, "greedy")
		root.Add(KeyLinks, 2000)
		sp := root.Child("insert")
		sp.Add(KeyAdmitted, 1)
		sp.Add(KeyRejected, 2)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("untraced solve path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkTracerDisabled measures the untraced fast path: a context
// lookup and nil checks, no clock reads, 0 allocs/op.
func BenchmarkTracerDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := TracerFrom(ctx)
		sp := root.Child("solve")
		sp.Add(KeyNodesExpanded, 1)
		sp.End()
	}
}

// BenchmarkTracerEnabled is the comparison point: one traced solve's
// whole tracing lifecycle — a fresh solve trace, the dispatcher's root
// stamps, two phases with counters, and the Stats render a response
// embeds.
func BenchmarkTracerEnabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewTracer()
		root := tr.Root()
		root.SetStr(KeyAlgorithm, "greedy")
		root.Add(KeyLinks, 2000)
		sp := root.Child("sort")
		sp.End()
		sp = root.Child("insert")
		sp.Add(KeyAdmitted, 1)
		sp.Add(KeyRejected, 2)
		sp.End()
		root.Add(KeyScheduled, 1)
		if tr.Stats() == nil {
			b.Fatal("no stats")
		}
	}
}

func TestTracerConcurrentReporters(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Root().Child("worker")
			for i := 0; i < 1000; i++ {
				sp.Add(KeyNodesExpanded, 1)
				tr.Root().Add(KeyRounds, 1)
			}
			sp.End()
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if got := st.Counter(KeyNodesExpanded); got != 8000 {
		t.Errorf("concurrent counts = %d, want 8000", got)
	}
	if got := st.Counter(KeyRounds); got != 8000 {
		t.Errorf("concurrent root counts = %d, want 8000", got)
	}
	if len(st.Phases) != 1 || st.Phases[0].Name != "worker" {
		t.Errorf("worker phases not merged: %+v", st.Phases)
	}
}

func TestTracerContextPlumbing(t *testing.T) {
	if TracerFrom(context.Background()).Enabled() {
		t.Error("empty context yielded a tracer")
	}
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if TracerFrom(ctx).Trace() != tr {
		t.Error("tracer did not round-trip through context")
	}
	// Installing nil leaves the context untouched.
	if ctx2 := WithTracer(context.Background(), nil); TracerFrom(ctx2).Enabled() {
		t.Error("nil tracer installed")
	}
	// A request span is not a solve tracer: solves under a traced
	// request that installed none (session events, traffic slots) must
	// open no solver spans.
	req := NewTraceCap("0123012301230123", "POST /v1/traffic", 8)
	if TracerFrom(ContextWithSpan(context.Background(), req.Root())).Enabled() {
		t.Error("request span leaked in as a solve tracer")
	}
}

// TestTracerNeverDropsSpans: a solve trace grows past its initial
// arena, so a solve with more workers than solveSpans loses no phase
// span and no counter.
func TestTracerNeverDropsSpans(t *testing.T) {
	tr := NewTracer()
	const workers = 4 * solveSpans
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Root().Child("tile_solve")
			sp.Add(KeyTilesSolved, 1)
			sp.End()
		}()
	}
	wg.Wait()
	if tr.Dropped() != 0 {
		t.Fatalf("solve trace dropped %d spans", tr.Dropped())
	}
	st := tr.Stats()
	if st.Counter(KeyTilesSolved) != workers || len(st.Phases) != 1 {
		t.Fatalf("stats = %+v, want %d tiles_solved in one phase", st, workers)
	}
}

// TestTracerGraftOverflow: grafting into a full request arena drops
// spans there (and counts them) but leaves the solve trace, and so its
// stats, whole.
func TestTracerGraftOverflow(t *testing.T) {
	tr := NewTracer()
	tr.Root().SetStr(KeyAlgorithm, "greedy")
	for _, name := range []string{"sort", "insert"} {
		sp := tr.Root().Child(name)
		sp.Add(KeyAdmitted, 1)
		sp.End()
	}
	before := tr.Stats()

	req := NewTraceCap("4567456745674567", "POST /v1/solve/batch", 3)
	solve := req.Root().Child("solve")
	solve.Graft(tr)
	solve.End()
	req.Finish(200)

	s := req.Snapshot()
	if len(s.Spans) != 3 || s.DroppedSpans != 1 {
		t.Fatalf("graft into a 3-span arena: %d spans, %d dropped; want 3, 1", len(s.Spans), s.DroppedSpans)
	}
	if s.Spans[1].Attrs[KeyAlgorithm] != "greedy" || s.Spans[2].Name != "sort" || s.Spans[2].Parent != 2 {
		t.Fatalf("graft lost the root attrs or the first phase: %+v", s.Spans)
	}
	after := tr.Stats()
	if len(after.Phases) != len(before.Phases) || after.Counter(KeyAdmitted) != 2 {
		t.Fatalf("graft changed the solve stats: %+v", after)
	}
}
