package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Benchmark-owned spans for the traced replay. Each span wraps one call
// into a layer's public API and records its name, start, end and
// parent; all spans of one replayed operation share the op id. With
// tracing off begin returns noSpan and end does nothing, so the
// untraced replay runs exactly the same code without recording.
type spanRec struct {
	op     int32
	parent int32
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
}

type tracer struct {
	on    bool
	epoch time.Time
	spans []spanRec
}

const noSpan int32 = -1

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(op, parent int32, name string) int32 {
	if !t.on {
		return noSpan
	}
	t.spans = append(t.spans, spanRec{op: op, parent: parent, name: name, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	covered := make([]int64, len(t.spans))
	lastEnd := make([]int64, len(t.spans))
	for i := range t.spans {
		lastEnd[i] = t.spans[i].start
	}
	// Children are appended in start order, so clipping each child to
	// the end of the previous one yields the union of their intervals.
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		lo := max(s.start, lastEnd[s.parent])
		if s.end > lo {
			covered[s.parent] += s.end - lo
			lastEnd[s.parent] = s.end
		}
	}
	for i, s := range t.spans {
		self[i] = s.end - s.start - covered[i]
	}
	return self
}

// durations groups span durations in milliseconds by name.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start)/1e6)
	}
	return out
}

// opTotals returns each op's root span duration in milliseconds.
func (t *tracer) opTotals() map[int32]float64 {
	out := make(map[int32]float64)
	for _, s := range t.spans {
		if s.parent < 0 {
			out[s.op] += float64(s.end-s.start) / 1e6
		}
	}
	return out
}

// printBreakdown writes the per-layer self-time table: for each span
// name its count, total and self time, and self time as a share of
// all replayed op time.
func (t *tracer) printBreakdown(w io.Writer) {
	self := t.selfTimes()
	type row struct {
		name        string
		n           int
		total, self float64
	}
	rows := map[string]*row{}
	var opTime float64
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &row{name: s.name}
			rows[s.name] = r
		}
		r.n++
		r.total += float64(s.end-s.start) / 1e6
		r.self += float64(self[i]) / 1e6
		if s.parent < 0 {
			opTime += float64(s.end-s.start) / 1e6
		}
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "traced replay breakdown (self time share of %.1f ms op time):\n", opTime)
	for _, r := range list {
		share := 0.0
		if opTime > 0 {
			share = r.self / opTime
		}
		fmt.Fprintf(w, "  %-28s n=%-7d total=%10.2f ms  self=%10.2f ms  share=%5.1f%%\n",
			r.name, r.n, r.total, r.self, 100*share)
	}
}

// writeChrome writes the spans as a Chrome trace_event file: one
// complete ("X") event per span, the op id as the thread, and the span
// id, parent and self time as arguments.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		b, err := json.Marshal(event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.op,
			Args: map[string]any{"id": i, "parent": s.parent, "op": s.op, "self_us": float64(self[i]) / 1e3},
		})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(b)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
