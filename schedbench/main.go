// Command schedbench is the schedd benchmark. For one workload and one
// seed it generates and pre-encodes every input, starts the real
// internal/server handler (default server.Config{}) on a loopback
// listener in this process, drives it as a closed loop for the given
// number of seconds, checks every output, and prints each end-to-end
// metric by name with its unit. With -trace 1 it then replays the same
// operation sequence in-process through the layers' public functions
// under benchmark-owned spans and prints the per-layer metrics instead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through schedbench/run.sh, which
// builds it first; see schedbench/README.md for the workloads, the
// metrics and which end-to-end metric each layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var stderr io.Writer = os.Stderr

// workload is one traffic mix. A fresh value is made for every set-up.
type workload interface {
	// clients is how many closed-loop client goroutines it wants.
	clients() int
	// generate makes and encodes every input from the seed.
	generate(seed uint64, seconds, clients int) error
	// warm brings a fresh server to steady state before timing.
	warm(e *env) error
	// drive runs the timed closed loop until the deadline.
	drive(e *env, deadline time.Time)
	// finish runs after the timed phase while the server is still up.
	finish(e *env) error
	// check verifies every output and fills the end-to-end figures.
	check(o *outcome)
	// replay re-executes the timed operations in send order in-process,
	// at most limit of them and no more once budget is spent. It returns
	// the client latency (ms) of each op it replayed, op k getting span
	// op id k, and the wall time those ops took. Every call starts from
	// the state the timed phase started from.
	replay(r *replayCtx, limit int, budget time.Duration) ([]float64, time.Duration, error)
	// layer adds the workload's end-to-end per-layer figures.
	layer(m map[string]float64)
}

var workloads = map[string]func() workload{
	"plan":    func() workload { return &reqWorkload{kind: "plan"} },
	"scale":   func() workload { return &reqWorkload{kind: "scale"} },
	"traffic": func() workload { return &reqWorkload{kind: "traffic"} },
	"session": func() workload { return &sessionWorkload{} },
}

// outcome is what the output checks make of a run.
type outcome struct {
	latencies          []float64 // ms, one per timed op
	attempted, failed  int
	admitNum, admitDen float64
	goodput            []float64 // packets/slot, one per served schedule or traffic run
	fails              failures
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: plan, scale, session or traffic")
		seed    = flag.Uint64("seed", 1, "workload seed (inputs are a pure function of it)")
		seconds = flag.Int("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: also run the traced replay and print the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for traces and the results log")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: schedbench --workload plan|scale|session|traffic --seed N --seconds S --trace 0|1\n")
		return 2
	}
	if err := execute(mk, *name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(stderr, "schedbench:", err)
		return 1
	}
	return 0
}

func execute(mk func() workload, name string, seed uint64, seconds int, traced bool, outDir string) error {
	st := stampNow(name, seed, seconds, traced)
	fmt.Printf("schedbench %s seed=%d seconds=%d trace=%v | cpu=%q nproc=%d gomaxprocs=%d %s rev=%s src=%s\n",
		name, seed, seconds, traced, st.CPU, st.NProc, st.GoMaxProcs, st.GoVersion, st.GitRev, st.SourceSHA)

	var (
		wl        workload
		e         *env
		setupSecs []float64
		baseHeap  uint64
	)
	for i := 0; i < setups; i++ {
		w := mk()
		clients := min(w.clients(), runtime.NumCPU())
		t0 := time.Now()
		if err := w.generate(seed, seconds, clients); err != nil {
			return fmt.Errorf("generating inputs: %w", err)
		}
		gen := time.Since(t0)
		if i == setups-1 {
			baseHeap = liveHeap()
		}
		t1 := time.Now()
		srv, err := startServer(clients)
		if err != nil {
			return err
		}
		if err := w.warm(srv); err != nil {
			srv.close()
			return fmt.Errorf("warm-up: %w", err)
		}
		setupSecs = append(setupSecs, (gen + time.Since(t1)).Seconds())
		if i < setups-1 {
			srv.close()
			continue
		}
		wl, e = w, srv
	}

	m0, err := e.scrape()
	if err != nil {
		e.close()
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	wl.drive(e, start.Add(time.Duration(seconds)*time.Second))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	endHeap := liveHeap()
	heap := float64(endHeap-min(baseHeap, endHeap)) / (1 << 20)
	m1, err := e.scrape()
	if err != nil {
		e.close()
		return err
	}
	err = wl.finish(e)
	e.close()
	if err != nil {
		return err
	}

	var o outcome
	wl.check(&o)
	if len(o.latencies) == 0 {
		return fmt.Errorf("no operation completed in the timed phase")
	}
	lat := append([]float64(nil), o.latencies...)
	sort.Float64s(lat)
	tl := latencyTail(lat)
	e2e := map[string]float64{
		"throughput_ops_per_s": float64(len(lat)) / elapsed.Seconds(),
		"latency_p50_ms":       quantile(lat, 0.5),
		"latency_tail_ms":      tl.value,
		"admitted_frac":        ratio(o.admitNum, o.admitDen),
		"goodput_per_slot":     mean(o.goodput),
		"setup_s":              median(setupSecs),
		"live_heap_mb":         heap,
	}
	failedFrac := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Printf("timed phase: %d ops in %.3f s; setups %v s; failed %d of %d attempted (failed_frac %.4g)\n",
		len(lat), elapsed.Seconds(), fmtFloats(setupSecs), o.failed, o.attempted, failedFrac)
	for _, msg := range o.fails.msgs {
		fmt.Printf("  check failed: %s\n", msg)
	}
	for _, m := range endToEnd {
		note := ""
		if m.name == "latency_tail_ms" {
			note = fmt.Sprintf("  (%s of %d samples)", tl.label, tl.samples)
		}
		fmt.Printf("  %-22s %14.6g %s%s\n", m.name, e2e[m.name], m.unit, note)
	}

	metrics := e2e
	if traced {
		layer, err := tracedLayers(wl, name, seed, seconds, outDir, len(lat))
		if err != nil {
			return err
		}
		layer["server.result_cache_hit_frac"] = ratio(delta(m0, m1, "schedd_cache_hits_total"),
			delta(m0, m1, "schedd_cache_hits_total")+delta(m0, m1, "schedd_cache_misses_total"))
		layer["server.prepared_hit_frac"] = ratio(delta(m0, m1, "schedd_prepared_cache_hits_total"),
			delta(m0, m1, "schedd_prepared_cache_hits_total")+delta(m0, m1, "schedd_prepared_cache_misses_total"))
		layer["server.prepared_builds"] = delta(m0, m1, "schedd_prepared_builds_total")
		layer["server.prepared_evictions"] = delta(m0, m1, "schedd_prepared_cache_evictions_total")
		layer["server.events_rejected"] = delta(m0, m1, "schedd_session_events_rejected_total")
		layer["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		layer["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(len(lat))
		wl.layer(layer)
		fmt.Println("per-layer metrics (the end-to-end metric each should move, and where):")
		for _, m := range perLayer {
			fmt.Printf("  %-30s %14.6g %-8s -> %s\n", m.name, layer[m.name], m.unit, m.moves)
		}
		metrics = layer
	}

	rec := runRecord{Stamp: st, Setups: setupSecs, Tail: tl.label, TailSamples: tl.samples,
		Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	if err := appendResult(outDir, rec); err != nil {
		fmt.Fprintln(stderr, "schedbench: results log:", err)
	}

	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]map[string]any{}}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		final.Metrics[m.name] = map[string]any{"value": metrics[m.name], "unit": m.unit}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// tracedLayers runs the traced replay, then the same ops with spans off,
// writes the spans out and derives the span-based per-layer metrics.
func tracedLayers(wl workload, name string, seed uint64, seconds int, outDir string, timedOps int) (map[string]float64, error) {
	budget := time.Duration(seconds) * time.Second / 3
	rc := newReplayCtx(true)
	e2eLat, tracedWall, err := wl.replay(rc, timedOps, budget)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	_, plainWall, err := wl.replay(newReplayCtx(false), len(e2eLat), time.Duration(1<<62))
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	fmt.Printf("replayed %d of %d timed ops: traced %.3f s, untraced %.3f s\n",
		len(e2eLat), timedOps, tracedWall.Seconds(), plainWall.Seconds())

	tr := rc.tr
	tr.printBreakdown(os.Stdout)
	if err := os.MkdirAll(filepath.Join(outDir, "traces"), 0o755); err == nil {
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := tr.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "schedbench: writing trace:", err)
		} else {
			fmt.Printf("spans written to %s\n", path)
		}
	}

	durs := tr.durations()
	med := func(span string) float64 { return median(durs[span]) }
	m := map[string]float64{
		"network.decode_ms":        med("network.decode"),
		"server.encode_ms":         med("server.encode"),
		"sched.dense_build_ms":     med("sched.dense_build"),
		"sched.sparse_build_ms":    med("sched.sparse_build"),
		"sched.derive_ms":          med("sched.derive"),
		"sched.verify_ms":          med("sched.verify"),
		"sched.diff_ms":            med("sched.diff"),
		"mobility.move_ms":         med("mobility.move"),
		"mobility.retune_ms":       med("mobility.retune"),
		"mobility.rebuild_ms":      med("mobility.rebuild"),
		"mc.simulate_ms":           med("mc.simulate"),
		"traffic.step_ms":          med("traffic.step"),
		"trace.overhead_frac":      ratio(tracedWall.Seconds(), plainWall.Seconds()) - 1,
		"sched.field_pairs":        median(rc.samples["field_pairs"]),
		"sched.verify_pairs":       median(rc.samples["verify_pairs"]),
		"sched.admit_ratio":        mean(rc.samples["admit_ratio"]),
		"sched.delta_links":        mean(rc.samples["delta_links"]),
		"mc.failure_rate_over_eps": mean(rc.samples["mc_failure_over_eps"]),
	}
	m["sched.field_mb"] = m["sched.field_pairs"] * 8 / (1 << 20)
	for _, a := range []string{"rle", "ldp", "greedy", "greedy-sharded"} {
		m["sched.solve_ms."+a] = med("sched.solve." + a)
	}
	var simSlots, simMS float64
	for _, v := range rc.samples["mc_slots"] {
		simSlots += v
	}
	for _, v := range durs["mc.simulate"] {
		simMS += v
	}
	m["mc.slots_per_s"] = ratio(simSlots, simMS/1e3)

	// Share of replayed op time spent verifying vs solving, and the
	// client-side overhead: each op's latency at the client minus the
	// sum of its traced layer calls, paired op by op.
	totals := tr.opTotals()
	var opSum, verifySum, solveSum float64
	for _, v := range totals {
		opSum += v
	}
	for span, ds := range durs {
		for _, d := range ds {
			switch {
			case span == "sched.verify":
				verifySum += d
			case strings.HasPrefix(span, "sched.solve."):
				solveSum += d
			}
		}
	}
	m["sched.verify_share"] = ratio(verifySum, opSum)
	m["sched.solve_share"] = ratio(solveSum, opSum)
	over := make([]float64, 0, len(e2eLat))
	for k, l := range e2eLat {
		over = append(over, l-totals[int32(k)])
	}
	m["server.overhead_ms"] = median(over)
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func delta(m0, m1 map[string]float64, name string) float64 { return m1[name] - m0[name] }

// liveHeap is the heap in use after a forced collection. It collects
// twice: the first pass only moves sync.Pool contents (solver scratch
// that points into prepared fields) to the victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// stamp identifies the machine, toolchain and code a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Time       string `json:"time"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	SourceSHA  string `json:"source_sha256"`
}

func stampNow(name string, seed uint64, seconds int, traced bool) stamp {
	return stamp{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Time:       time.Now().UTC().Format(time.RFC3339),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		SourceSHA:  sourceHash(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev reads HEAD from .git in the working directory; a checkout
// without git metadata reports "none" and is identified by sourceHash.
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return r
	}
	return ref
}

// sourceHash is a SHA-256 over the path and content of every Go source
// and go.mod file under the working directory, skipping dot
// directories, so two results name the same code even without git.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
