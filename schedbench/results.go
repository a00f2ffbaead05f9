package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

type metricDef struct {
	name, unit string
	moves      string // per-layer: the end-to-end metric it should move, and on which workload
}

// endToEnd lists the user-visible metrics, as BENCHMARK.json does.
var endToEnd = []metricDef{
	{name: "throughput_ops_per_s", unit: "ops/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_tail_ms", unit: "ms"},
	{name: "admitted_frac", unit: "1"},
	{name: "goodput_per_slot", unit: "packets/slot"},
	{name: "setup_s", unit: "s"},
	{name: "live_heap_mb", unit: "MiB"},
}

// perLayer lists the per-layer metrics with the prediction each one
// carries. A layer a workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{"network.decode_ms", "ms", "latency_p50_ms on scale, plan"},
	{"network.request_kb", "KiB", "latency_p50_ms on scale, plan"},
	{"server.overhead_ms", "ms", "latency_p50_ms and latency_tail_ms on all"},
	{"server.result_cache_hit_frac", "1", "throughput_ops_per_s on plan"},
	{"server.prepared_hit_frac", "1", "throughput_ops_per_s on plan; setup_s on traffic"},
	{"server.prepared_builds", "count", "throughput_ops_per_s on plan; setup_s on traffic"},
	{"server.prepared_evictions", "count", "throughput_ops_per_s on plan"},
	{"server.encode_ms", "ms", "latency_p50_ms on scale"},
	{"server.response_kb", "KiB", "latency_p50_ms on scale"},
	{"server.stream_retries", "count", "latency_tail_ms on session"},
	{"server.events_rejected", "count", "failed ops (attempted/failed) on session"},
	{"sched.dense_build_ms", "ms", "throughput_ops_per_s, latency_p50_ms on plan; setup_s on session; no change to session event latency"},
	{"sched.sparse_build_ms", "ms", "latency_p50_ms on scale"},
	{"sched.field_pairs", "count", "computed: throughput_ops_per_s on plan; setup_s on session"},
	{"sched.field_mb", "MiB", "computed at 8 B/pair: live_heap_mb on plan, session, traffic"},
	{"sched.solve_ms.rle", "ms", "latency_p50_ms, admitted_frac on scale; latency_p50_ms on session"},
	{"sched.solve_ms.ldp", "ms", "latency_p50_ms on plan"},
	{"sched.solve_ms.greedy", "ms", "latency_p50_ms, admitted_frac on scale; latency_p50_ms on session"},
	{"sched.solve_ms.greedy-sharded", "ms", "latency_p50_ms, admitted_frac on scale"},
	{"sched.derive_ms", "ms", "latency_p50_ms on plan"},
	{"sched.admit_ratio", "1", "admitted_frac on scale"},
	{"sched.verify_ms", "ms", "latency_p50_ms on scale"},
	{"sched.verify_pairs", "count", "computed: latency_p50_ms on scale"},
	{"sched.verify_share", "1", "latency_p50_ms on scale"},
	{"sched.solve_share", "1", "latency_p50_ms on scale"},
	{"sched.diff_ms", "ms", "latency_p50_ms on session"},
	{"sched.delta_links", "count", "latency_p50_ms on session"},
	{"mobility.move_ms", "ms", "latency_p50_ms on session"},
	{"mobility.retune_ms", "ms", "latency_p50_ms on session"},
	{"mobility.rebuild_ms", "ms", "latency_tail_ms on session"},
	{"mc.simulate_ms", "ms", "latency_tail_ms on plan"},
	{"mc.slots_per_s", "slots/s", "latency_tail_ms on plan"},
	{"mc.failure_rate_over_eps", "1", "reported, not gated: below 1 while the Cor. 3.1 promise holds"},
	{"traffic.step_ms", "ms", "throughput_ops_per_s, goodput_per_slot on traffic"},
	{"traffic.attempts_per_slot", "count", "goodput_per_slot on traffic"},
	{"traffic.failed_tx_frac", "1", "goodput_per_slot on traffic"},
	{"runtime.gc_pause_ms", "ms", "throughput_ops_per_s on plan, session"},
	{"runtime.alloc_mb_per_op", "MiB", "throughput_ops_per_s on plan, session"},
	{"trace.overhead_frac", "1", "none: the cost of the benchmark's own spans"},
}

// runRecord is one line of the results log.
type runRecord struct {
	Stamp       stamp              `json:"stamp"`
	Setups      []float64          `json:"setup_runs_s"`
	Tail        string             `json:"latency_tail_percentile"`
	TailSamples int                `json:"latency_samples"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
}

// appendResult adds rec to dir/results.jsonl and prints, for every
// metric, the per-run values recorded there for the same workload and
// mode with their median and quartiles.
func appendResult(dir string, rec runRecord) error {
	path := filepath.Join(dir, "results.jsonl")
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runs := map[string][]float64{}
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r runRecord
		if json.Unmarshal(sc.Bytes(), &r) != nil ||
			r.Stamp.Workload != rec.Stamp.Workload || r.Stamp.Trace != rec.Stamp.Trace || r.Stamp.Seconds != rec.Stamp.Seconds {
			continue
		}
		n++
		for k, v := range r.Metrics {
			runs[k] = append(runs[k], v)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("results log %s: %d runs of %s (trace=%v, %d s); per metric median [q1, q3]:\n",
		path, n, rec.Stamp.Workload, rec.Stamp.Trace, rec.Stamp.Seconds)
	list := endToEnd
	if rec.Stamp.Trace {
		list = perLayer
	}
	for _, m := range list {
		vs := runs[m.name]
		q1, q3 := quartiles(vs)
		fmt.Printf("  %-30s %12.6g [%.6g, %.6g] %s\n", m.name, median(vs), q1, q3, m.unit)
	}
	return nil
}
