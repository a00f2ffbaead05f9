package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func finishedTrace(id string, status int) *Trace {
	tr := NewTrace(id, "POST /v1/solve")
	sp := tr.Root().Child("solve")
	sp.End()
	tr.Finish(status)
	return tr
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 4})
	for i := 0; i < 10; i++ {
		rec.Record(finishedTrace(fmt.Sprintf("%016x", i), 200))
	}
	st := rec.Stats()
	if st.Seen != 10 || st.Kept != 10 || st.Retained != 4 {
		t.Fatalf("stats = %+v", st)
	}
	recent := rec.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("recent = %d traces, want 4", len(recent))
	}
	// Newest first; oldest retained is trace 6.
	if recent[0].TraceID != fmt.Sprintf("%016x", 9) || recent[3].TraceID != fmt.Sprintf("%016x", 6) {
		t.Fatalf("wrong order/retention: %q ... %q", recent[0].TraceID, recent[3].TraceID)
	}
	if _, ok := rec.Get(fmt.Sprintf("%016x", 2)); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if snap, ok := rec.Get(fmt.Sprintf("%016x", 8)); !ok || len(snap.Spans) != 2 {
		t.Fatalf("retained trace lookup failed: %v %+v", ok, snap)
	}
}

func TestRecorderHeadSampling(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 64, SampleEvery: 10})
	for i := 0; i < 40; i++ {
		rec.Record(finishedTrace(fmt.Sprintf("%016x", i), 200))
	}
	st := rec.Stats()
	if st.Kept != 4 { // traces 0, 10, 20, 30
		t.Fatalf("kept = %d, want 4", st.Kept)
	}
	if _, ok := rec.Get(fmt.Sprintf("%016x", 10)); !ok {
		t.Fatal("head-sampled trace missing")
	}
	if _, ok := rec.Get(fmt.Sprintf("%016x", 11)); ok {
		t.Fatal("unsampled trace retained")
	}
}

func TestRecorderKeepsErrorsAndMarked(t *testing.T) {
	// SampleEvery negative: nothing kept unless it is an outlier.
	rec := NewRecorder(RecorderConfig{Capacity: 64, SampleEvery: -1})
	rec.Record(finishedTrace("00000000000000aa", 200))
	rec.Record(finishedTrace("00000000000000ab", 500))
	marked := finishedTrace("00000000000000ac", 200)
	marked.MarkOutlier("truncated")
	rec.Record(marked)
	st := rec.Stats()
	if st.Kept != 2 || st.Outliers != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := rec.Get("00000000000000aa"); ok {
		t.Fatal("plain 200 retained under SampleEvery<0")
	}
	if snap, ok := rec.Get("00000000000000ab"); !ok || snap.Outlier != "error_status" {
		t.Fatalf("error trace: ok=%v outlier=%q", ok, snap.Outlier)
	}
	if snap, ok := rec.Get("00000000000000ac"); !ok || snap.Outlier != "truncated" {
		t.Fatalf("marked trace: ok=%v outlier=%q", ok, snap.Outlier)
	}
}

func TestRecorderLatencyOutlier(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 256, SampleEvery: -1, Quantile: 0.9})
	// Feed enough fast traces to establish a threshold.
	for i := 0; i < 2*threshMin; i++ {
		tr := NewTrace(fmt.Sprintf("%016x", i), "fast")
		tr.Finish(200)
		rec.Record(tr)
	}
	if rec.Threshold() <= 0 {
		t.Fatal("threshold not established")
	}
	slow := NewTrace("00000000000000ff", "slow")
	time.Sleep(5 * time.Millisecond) // dwarfs the ~µs fast traces
	slow.Finish(200)
	rec.Record(slow)
	snap, ok := rec.Get("00000000000000ff")
	if !ok || snap.Outlier != "latency_quantile" {
		t.Fatalf("slow trace not kept as latency outlier: ok=%v outlier=%q", ok, snap.Outlier)
	}
}

func TestRecorderSlowest(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8})
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("%016x", i), "t")
		if i == 3 {
			time.Sleep(2 * time.Millisecond)
		}
		tr.Finish(200)
		rec.Record(tr)
	}
	slow := rec.Slowest(2)
	if len(slow) != 2 || slow[0].TraceID != fmt.Sprintf("%016x", 3) {
		t.Fatalf("slowest = %+v", slow)
	}
}

func TestRecorderNilAndDisabled(t *testing.T) {
	var rec *Recorder
	rec.Record(finishedTrace("00000000000000ba", 200)) // must not panic
	if got := rec.Recent(5); got != nil {
		t.Fatalf("nil recorder Recent = %v", got)
	}
	if _, ok := rec.Get("00000000000000ba"); ok {
		t.Fatal("nil recorder Get succeeded")
	}
	off := NewRecorder(RecorderConfig{Capacity: -1})
	off.Record(finishedTrace("00000000000000bb", 500))
	if st := off.Stats(); st.Retained != 0 || st.Seen != 1 {
		t.Fatalf("disabled recorder stats = %+v", st)
	}
}

func TestTraceEventExport(t *testing.T) {
	tr := NewTraceCap("cafecafecafecafe", "POST /v1/solve/batch", 64)
	root := tr.Root()
	prep := root.Child("prepare")
	prep.End()
	// Two overlapping "concurrent" children plus a nested grandchild:
	// the exporter must give the siblings distinct lanes and keep the
	// grandchild on its parent's lane.
	a := root.Child("config-a")
	b := root.Child("config-b")
	leaf := a.Child("solve")
	time.Sleep(time.Millisecond)
	leaf.End()
	a.End()
	b.End()
	tr.Finish(200)

	var buf bytes.Buffer
	snap := tr.Snapshot()
	if err := snap.WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	lanes := map[string]int{}
	var rootArgs map[string]any
	for _, ev := range out.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.Name] = ev.Tid
			if ev.Dur == nil {
				t.Fatalf("X event %q missing dur", ev.Name)
			}
			if ev.Name == "POST /v1/solve/batch" {
				rootArgs = ev.Args
			}
		}
	}
	if len(lanes) != 5 {
		t.Fatalf("want 5 X events, got %v", lanes)
	}
	if lanes["config-a"] == lanes["config-b"] {
		t.Fatal("overlapping siblings share a lane")
	}
	if lanes["solve"] != lanes["config-a"] {
		t.Fatal("nested child left its parent's lane")
	}
	if lanes["POST /v1/solve/batch"] != 0 || lanes["prepare"] != 0 {
		t.Fatalf("root/prepare not on lane 0: %v", lanes)
	}
	if rootArgs["trace_id"] != "cafecafecafecafe" {
		t.Fatalf("root args missing trace_id: %v", rootArgs)
	}
}

func TestValidTraceID(t *testing.T) {
	good := []string{"0123456789abcdef", "ABCDEF01", NewTraceID()}
	bad := []string{"", "short", "0123456789abcdeg", "0123456789abcdef0123456789abcdef0", "../../etc/passwd"}
	for _, id := range good {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false", id)
		}
	}
	for _, id := range bad {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true", id)
		}
	}
}

// TestRecorderCompactsKeptTraces: a kept trace that used at most half
// of its arena is retained as an exact-size copy (its export
// unchanged), while a trace that filled its arena keeps it.
func TestRecorderCompactsKeptTraces(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 4})
	small := finishedTrace("00000000000000aa", 200)
	want, _ := json.Marshal(small.Snapshot())
	rec.Record(small)
	snap, ok := rec.Get("00000000000000aa")
	if got, _ := json.Marshal(snap); !ok || !bytes.Equal(got, want) {
		t.Fatalf("compaction changed the export:\n got %s\nwant %s", got, want)
	}
	if c := cap(small.spans); c >= DefaultMaxSpans {
		t.Fatalf("small kept trace retains a %d-span arena", c)
	}

	big := NewTrace("00000000000000bb", "stream")
	for i := 0; i < DefaultMaxSpans; i++ {
		big.Root().Child("event").End()
	}
	big.Finish(200)
	rec.Record(big)
	if c := cap(big.spans); c != DefaultMaxSpans {
		t.Fatalf("full kept trace arena cap %d, want %d", c, DefaultMaxSpans)
	}
}
