package obs

import (
	"sort"
	"sync"
	"time"
)

// RecorderConfig sizes the flight recorder.
type RecorderConfig struct {
	// Capacity is how many traces the ring retains (default 128;
	// negative disables the recorder — Record releases everything).
	Capacity int
	// SampleEvery keeps every Nth finished trace regardless of
	// outcome (head sampling; default 1 = keep all, 0 uses the
	// default, negative keeps none but outliers).
	SampleEvery int
	// Quantile is the rolling latency quantile above which a trace is
	// always kept (default 0.99).
	Quantile float64
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Capacity == 0 {
		c.Capacity = 128
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 1
	}
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.99
	}
	return c
}

// latWindow is the rolling latency window backing the outlier
// threshold, and threshEvery how often the quantile is recomputed
// (a sort of latWindow float64s — microseconds of work, amortized).
const (
	latWindow   = 256
	threshEvery = 32
	threshMin   = 64 // samples required before the threshold applies
)

// Recorder is the flight recorder: a bounded ring of finished traces
// admitted by head sampling plus always-keep-on-outlier (latency above
// a rolling quantile, error status, or an explicit MarkOutlier such as
// deadline truncation). Traces that are not kept — and traces evicted
// by the ring — are recycled into the trace pool, so steady-state
// recording allocates nothing per request.
type Recorder struct {
	mu  sync.Mutex
	cfg RecorderConfig

	ring []*Trace // insertion order; ring[next] is the oldest once full
	next int
	byID map[string]*Trace

	seen     int64
	kept     int64
	outliers int64

	lat     [latWindow]float64 // seconds, rolling
	latN    int
	latIdx  int
	scratch []float64
	thresh  float64 // seconds; 0 = not yet established
}

// NewRecorder builds a recorder; cfg fields at zero take defaults.
func NewRecorder(cfg RecorderConfig) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{cfg: cfg, byID: make(map[string]*Trace)}
	if cfg.Capacity > 0 {
		r.ring = make([]*Trace, 0, cfg.Capacity)
		r.scratch = make([]float64, latWindow)
	}
	return r
}

// RecorderStats is the /debug/requests header block.
type RecorderStats struct {
	Seen        int64   `json:"seen"`
	Kept        int64   `json:"kept"`
	Outliers    int64   `json:"outliers"`
	Retained    int     `json:"retained"`
	Capacity    int     `json:"capacity"`
	SampleEvery int     `json:"sample_every"`
	Quantile    float64 `json:"quantile"`
	ThresholdUS float64 `json:"threshold_us,omitempty"`
}

// Stats snapshots the recorder's admission counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderStats{
		Seen:        r.seen,
		Kept:        r.kept,
		Outliers:    r.outliers,
		Retained:    len(r.ring),
		Capacity:    r.cfg.Capacity,
		SampleEvery: r.cfg.SampleEvery,
		Quantile:    r.cfg.Quantile,
		ThresholdUS: r.thresh * 1e6,
	}
}

// Record admits a finished trace. Ownership of t transfers to the
// recorder: the caller must not touch t (or any Span into it) after
// this call, because unkept traces are recycled immediately.
func (r *Recorder) Record(t *Trace) {
	if t == nil {
		return
	}
	if r == nil {
		t.release()
		return
	}
	r.mu.Lock()
	r.seen++
	dur := t.dur.Seconds()

	// Outlier tests against the threshold established before this
	// sample joined the window, so one slow request cannot hide a
	// second identical one.
	reason := t.outlier
	if reason == "" && t.status >= 400 {
		reason = "error_status"
	}
	if reason == "" && r.thresh > 0 && dur > r.thresh {
		reason = "latency_quantile"
	}

	r.lat[r.latIdx] = dur
	r.latIdx = (r.latIdx + 1) % latWindow
	if r.latN < latWindow {
		r.latN++
	}
	if r.latN >= threshMin && r.seen%threshEvery == 0 {
		s := r.scratch[:r.latN]
		copy(s, r.lat[:r.latN])
		sort.Float64s(s)
		idx := int(float64(r.latN-1) * r.cfg.Quantile)
		r.thresh = s[idx]
	}

	sampled := r.cfg.SampleEvery > 0 && (r.seen-1)%int64(r.cfg.SampleEvery) == 0
	if reason == "" && !sampled {
		r.mu.Unlock()
		t.release()
		return
	}
	if reason != "" {
		r.outliers++
		t.mu.Lock()
		t.outlier = reason
		t.mu.Unlock()
	}
	if r.cfg.Capacity <= 0 {
		r.mu.Unlock()
		t.release()
		return
	}
	t.compact()
	r.kept++
	var evicted *Trace
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, t)
	} else {
		evicted = r.ring[r.next]
		r.ring[r.next] = t
	}
	r.next = (r.next + 1) % cap(r.ring)
	if evicted != nil {
		delete(r.byID, evicted.id)
	}
	r.byID[t.id] = t
	r.mu.Unlock()
	if evicted != nil {
		evicted.release()
	}
}

// Get snapshots the retained trace with the given ID.
func (r *Recorder) Get(id string) (TraceSnapshot, bool) {
	if r == nil {
		return TraceSnapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	if !ok {
		return TraceSnapshot{}, false
	}
	return t.Snapshot(), true
}

// ordered returns the retained traces newest-first.
func (r *Recorder) ordered() []*Trace {
	out := make([]*Trace, 0, len(r.ring))
	for i := 1; i <= len(r.ring); i++ {
		out = append(out, r.ring[(r.next-i+cap(r.ring))%cap(r.ring)])
	}
	return out
}

// Recent snapshots up to n retained traces, newest first.
func (r *Recorder) Recent(n int) []TraceSnapshot {
	return r.collect(n, false)
}

// Slowest snapshots up to n retained traces by descending duration.
func (r *Recorder) Slowest(n int) []TraceSnapshot {
	return r.collect(n, true)
}

func (r *Recorder) collect(n int, byDur bool) []TraceSnapshot {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return nil
	}
	ts := r.ordered()
	if byDur {
		sort.SliceStable(ts, func(i, j int) bool { return ts[i].dur > ts[j].dur })
	}
	if n > len(ts) {
		n = len(ts)
	}
	out := make([]TraceSnapshot, n)
	for i := 0; i < n; i++ {
		out[i] = ts[i].Snapshot()
	}
	return out
}

// Threshold reports the current outlier latency threshold (0 until
// enough samples have accumulated).
func (r *Recorder) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.thresh * float64(time.Second))
}
