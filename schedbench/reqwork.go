package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/mc"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/traffic"
)

// Workload shapes. The plan pool is twice the server's 16-entry
// prepared-field cache, and Monte-Carlo requests carry fresh seeds, so
// neither cache tier holds the working set. The most popular instance
// (n = 2000) never leaves the cache and the next (n = 500) seldom
// does; the churning rest all have n = 1000, so the heap left at the
// end of a run hardly depends on which of them happen to be cached,
// and most requests are for n = 1000, which keeps the median inside
// one size class.
const (
	planPool    = 32
	planZipfS   = 1.0
	planBlock   = 200 // ops per client per stratified block
	planMCSlots = 50
	planWarmOps = 48 // per client

	scaleAlpha  = 4.5
	scaleCutoff = 1e-7
	scaleCycles = 2 // pre-generated; the timed phase ends on a cycle boundary

	trafficInsts = 3
	trafficN     = 2000
	trafficSlots = 120
	trafficRate  = 0.005
)

var (
	planHeadN = []int{2000, 500}
	planAlgos = []string{"rle", "ldp", "greedy"}
	planEps   = []float64{0.01, 0.05}

	// planVariants is the request mix: 10% batches of all six configs
	// and 90% single solves, a third of which carry mc_slots.
	planVariants = func() []planVariant {
		vs := []planVariant{{batch: true}, {batch: true}}
		for _, a := range planAlgos {
			for _, e := range planEps {
				vs = append(vs, planVariant{algo: a, eps: e, mc: planMCSlots},
					planVariant{algo: a, eps: e}, planVariant{algo: a, eps: e})
			}
		}
		return vs
	}()

	// scaleClasses is one scale cycle: every algorithm twice at n=5000
	// and once at n=10000. With nine requests the median falls inside
	// the n=5000 group instead of between the two sizes.
	scaleClasses = []struct {
		n    int
		algo string
	}{
		{5000, "rle"}, {5000, "greedy"}, {5000, "greedy-sharded"},
		{10000, "rle"}, {10000, "greedy"}, {10000, "greedy-sharded"},
		{5000, "rle"}, {5000, "greedy"}, {5000, "greedy-sharded"},
	}
	// trafficPolicies is the policy cycle. backlog runs take about twice
	// as long as maxweight ones; with three backlog runs per maxweight
	// run the median falls well inside one class instead of near the
	// boundary between the two.
	trafficPolicies = []string{"backlog", "maxweight", "backlog", "backlog"}
)

type planVariant struct {
	algo  string
	eps   float64
	mc    int
	batch bool
}

// instance is one generated link set and its encoded JSON array.
type instance struct {
	links []network.Link
	json  []byte
}

func newInstance(seed, index uint64, n int, region float64) (instance, error) {
	cfg := network.PaperConfig(n)
	cfg.Region = region
	ls, err := network.Generate(cfg, seed, index)
	if err != nil {
		return instance{}, err
	}
	links := ls.Links()
	b, err := json.Marshal(links)
	if err != nil {
		return instance{}, err
	}
	return instance{links: links, json: b}, nil
}

// scaleRegion keeps the link density of the repository's sparse scale
// benches: 20000 links per 20000² area.
func scaleRegion(n int) float64 { return 20000 * math.Sqrt(float64(n)/20000) }

// reqOp is one pre-encoded request.
type reqOp struct {
	path   string
	body   body
	key    int // same key ⇒ same request ⇒ same answer
	inst   int
	algo   string
	eps    float64
	mc     int
	batch  bool
	policy string
}

// reqRecord is one request as the client saw it.
type reqRecord struct {
	op      *reqOp
	sent    time.Time
	lat     time.Duration
	status  int
	hit     bool
	respLen int
	digest  uint64
	body    []byte // kept for the output check
	err     error
	warm    bool
}

// reqWorkload drives the request/response workloads: plan, scale and
// traffic. Each client owns one pre-generated op sequence.
type reqWorkload struct {
	kind      string
	insts     []instance
	seqs      [][]*reqOp
	next      []int
	keys      map[string]int
	recs      [][]reqRecord
	seen      []map[int]bool
	keepAll   bool   // keep every response body, not just the first per key
	cycle     int    // >0: the timed phase may end only after whole cycles
	warmN     int    // leading ops of each sequence run as warm-up
	warmOp    *reqOp // scale's warm-up request, outside the sequence
	minReplay int

	// traffic figures from the output check
	attempts, slots, failedTx float64
}

func (w *reqWorkload) clients() int {
	if w.kind == "scale" {
		return 1
	}
	return 2
}

func (w *reqWorkload) key(s string) int {
	if k, ok := w.keys[s]; ok {
		return k
	}
	w.keys[s] = len(w.keys)
	return w.keys[s]
}

// resultKey names a solve the way the server's result cache tells them
// apart, for the replay's model of that cache.
func resultKey(inst int, algo string, eps float64, mcSlots int, mcSeed uint64) string {
	return fmt.Sprintf("%d/%s/%g/%d/%d", inst, algo, eps, mcSlots, mcSeed)
}

func (w *reqWorkload) generate(seed uint64, seconds, clients int) error {
	w.keys = map[string]int{}
	w.minReplay = 1
	switch w.kind {
	case "plan":
		return w.genPlan(seed, seconds, clients)
	case "scale":
		return w.genScale(seed)
	default:
		return w.genTraffic(seed, seconds, clients)
	}
}

func (w *reqWorkload) genPlan(seed uint64, seconds, clients int) error {
	for r := 0; r < planPool; r++ {
		n := 1000
		if r < len(planHeadN) {
			n = planHeadN[r]
		}
		in, err := newInstance(seed, uint64(r), n, 500)
		if err != nil {
			return err
		}
		w.insts = append(w.insts, in)
	}
	// Each block of planBlock ops per client holds every rank its Zipf
	// quota of times, spread evenly, and each rank cycles through the
	// variants. The order, and with it how often each cache tier
	// misses, is the same for every seed; the seed sets the instances
	// and the Monte-Carlo seeds.
	weights := make([]float64, planPool)
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), planZipfS)
	}
	order := smoothOrder(quotas(weights, planBlock))
	bodies := map[int]body{}
	blocks := (planWarmOps + seconds*400 + planBlock - 1) / planBlock
	for c := 0; c < clients; c++ {
		src := rng.Stream(seed, "schedbench/plan", uint64(c))
		var seq []*reqOp
		seen := make([]int, planPool)
		for k := 0; k < blocks*planBlock; k++ {
			// The second client runs half a block out of phase.
			r := order[(k+c*planBlock/2)%planBlock]
			v := planVariants[(seen[r]+7*r+c)%len(planVariants)]
			seen[r]++
			seq = append(seq, w.planOp(r, v, src.Uint64(), bodies))
		}
		w.seqs = append(w.seqs, seq)
		w.next = append(w.next, 0)
	}
	w.warmN = planWarmOps
	return nil
}

// planOp makes the request for one (rank, variant) draw, sharing one
// encoded body per distinct request. A Monte-Carlo request uses mcSeed,
// so each one is distinct.
func (w *reqWorkload) planOp(inst int, v planVariant, mcSeed uint64, bodies map[int]body) *reqOp {
	op := &reqOp{path: "/v1/solve", inst: inst, algo: v.algo, eps: v.eps, mc: v.mc, batch: v.batch}
	var prefix string
	if v.batch {
		op.path = "/v1/solve/batch"
		op.key = w.key(fmt.Sprintf("batch/%d", inst))
		var cfgs []string
		for _, a := range planAlgos {
			for _, e := range planEps {
				cfgs = append(cfgs, fmt.Sprintf(`{"algorithm":%q,"eps":%g}`, a, e))
			}
		}
		prefix = `{"configs":[` + join(cfgs) + `],"links":`
	} else {
		op.key = w.key(resultKey(inst, v.algo, v.eps, 0, 0))
		prefix = fmt.Sprintf(`{"algorithm":%q,"eps":%g,`, v.algo, v.eps)
		if v.mc > 0 {
			op.key = w.key(fmt.Sprintf("mc/%d", mcSeed))
			prefix += fmt.Sprintf(`"mc_slots":%d,"mc_seed":%d,`, v.mc, mcSeed)
		}
		prefix += `"links":`
	}
	b, ok := bodies[op.key]
	if !ok {
		b = body{[]byte(prefix), w.insts[inst].json, []byte("}")}
		bodies[op.key] = b
	}
	op.body = b
	return op
}

// smoothOrder returns a sequence holding class i exactly counts[i]
// times, spread evenly: each position goes to the class furthest behind
// its share so far.
func smoothOrder(counts []int) []int {
	total := 0
	for _, q := range counts {
		total += q
	}
	served := make([]int, len(counts))
	out := make([]int, 0, total)
	for t := 1; t <= total; t++ {
		best, bestLag := -1, math.Inf(-1)
		for i, q := range counts {
			if lag := float64(q*t)/float64(total) - float64(served[i]); served[i] < q && lag > bestLag {
				best, bestLag = i, lag
			}
		}
		served[best]++
		out = append(out, best)
	}
	return out
}

// quotas splits total over weights by largest remainder.
func quotas(weights []float64, total int) []int {
	var sum float64
	for _, x := range weights {
		sum += x
	}
	out := make([]int, len(weights))
	rem := make([]int, len(weights))
	left := total
	for i, x := range weights {
		exact := x / sum * float64(total)
		out[i] = int(exact)
		left -= out[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := weights[rem[a]]/sum*float64(total) - float64(out[rem[a]])
		fb := weights[rem[b]]/sum*float64(total) - float64(out[rem[b]])
		return fa > fb
	})
	for k := 0; k < left; k++ {
		out[rem[k]]++
	}
	return out
}

func scaleBody(algo string, in instance) body {
	prefix := fmt.Sprintf(`{"algorithm":%q,"alpha":%g,"field":"sparse","cutoff":%g,"links":`, algo, scaleAlpha, scaleCutoff)
	return body{[]byte(prefix), in.json, []byte("}")}
}

func (w *reqWorkload) genScale(seed uint64) error {
	w.keepAll, w.cycle, w.minReplay = true, len(scaleClasses), len(scaleClasses)
	var seq []*reqOp
	for k := 0; k < scaleCycles*len(scaleClasses); k++ {
		cl := scaleClasses[k%len(scaleClasses)]
		in, err := newInstance(seed, uint64(1000+k), cl.n, scaleRegion(cl.n))
		if err != nil {
			return err
		}
		w.insts = append(w.insts, in)
		seq = append(seq, &reqOp{path: "/v1/solve", inst: k, algo: cl.algo, eps: 0.01,
			key: w.key(strconv.Itoa(k)), body: scaleBody(cl.algo, in)})
	}
	// Warm-up: one small solve of the same shape, so the first timed
	// request does not pay for cold connections and code paths.
	in, err := newInstance(seed, 999, 500, scaleRegion(500))
	if err != nil {
		return err
	}
	w.insts = append(w.insts, in)
	w.warmOp = &reqOp{path: "/v1/solve", inst: len(w.insts) - 1, algo: "rle", eps: 0.01,
		key: w.key("warm"), body: scaleBody("rle", in)}
	w.seqs, w.next = [][]*reqOp{seq}, []int{0}
	return nil
}

func (w *reqWorkload) genTraffic(seed uint64, seconds, clients int) error {
	w.keepAll = true
	for k := 0; k < trafficInsts; k++ {
		in, err := newInstance(seed, uint64(2000+k), trafficN, 500)
		if err != nil {
			return err
		}
		w.insts = append(w.insts, in)
	}
	perClient := trafficInsts + seconds*60
	for c := 0; c < clients; c++ {
		src := rng.Stream(seed, "schedbench/traffic", uint64(c))
		seq := make([]*reqOp, 0, perClient)
		for i := 0; i < perClient; i++ {
			op := &reqOp{path: "/v1/traffic", inst: (i + c) % trafficInsts, policy: trafficPolicies[i%len(trafficPolicies)]}
			op.key = w.key(fmt.Sprintf("%d/%d", c, i))
			prefix := fmt.Sprintf(`{"slots":%d,"policy":%q,"arrivals":"bernoulli","rate":%g,"seed":%d,"links":`,
				trafficSlots, op.policy, trafficRate, src.Uint64())
			op.body = body{[]byte(prefix), w.insts[op.inst].json, []byte("}")}
			seq = append(seq, op)
		}
		w.seqs = append(w.seqs, seq)
		w.next = append(w.next, 0)
	}
	// The first ops of each client touch every instance, so each field
	// is built during warm-up and served from the prepared cache after.
	w.warmN = trafficInsts
	return nil
}

func join(parts []string) string {
	var b bytes.Buffer
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	return b.String()
}

func (w *reqWorkload) exec(e *env, c int, op *reqOp, warm bool) {
	t0 := time.Now()
	r, err := e.post(op.path, op.body)
	rec := reqRecord{op: op, sent: t0, lat: time.Since(t0), err: err, warm: warm}
	if err == nil {
		rec.status, rec.respLen = r.status, len(r.body)
		rec.hit = r.header.Get("X-Cache") == "hit"
		rec.digest = activeDigest(r.body)
		if rec.status != 200 || w.keepAll || !w.seen[c][op.key] {
			rec.body = r.body
			w.seen[c][op.key] = true
		}
	}
	w.recs[c] = append(w.recs[c], rec)
}

// activeDigest hashes every "active":[...] array in a response, which is
// the part of a solve answer that must repeat exactly for a repeated
// request (stats carry wall-clock times and may differ).
func activeDigest(b []byte) uint64 {
	h := fnv.New64a()
	tag := []byte(`"active":[`)
	for {
		i := bytes.Index(b, tag)
		if i < 0 {
			break
		}
		b = b[i+len(tag):]
		j := bytes.IndexByte(b, ']')
		if j < 0 {
			break
		}
		h.Write(b[:j])
		h.Write([]byte{';'})
		b = b[j:]
	}
	return h.Sum64()
}

func (w *reqWorkload) warm(e *env) error {
	w.recs = make([][]reqRecord, len(w.seqs))
	w.seen = make([]map[int]bool, len(w.seqs))
	for c := range w.seen {
		w.seen[c] = map[int]bool{}
	}
	if w.warmOp != nil {
		w.exec(e, 0, w.warmOp, true)
	}
	var wg sync.WaitGroup
	for c := range w.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ; w.next[c] < w.warmN; w.next[c]++ {
				w.exec(e, c, w.seqs[c][w.next[c]], true)
			}
		}(c)
	}
	wg.Wait()
	for c, rs := range w.recs {
		for _, r := range rs {
			if r.err != nil || r.status != 200 {
				return fmt.Errorf("client %d warm-up request: status %d, err %v, body %.200s", c, r.status, r.err, r.body)
			}
		}
	}
	return nil
}

func (w *reqWorkload) drive(e *env, deadline time.Time) {
	var wg sync.WaitGroup
	for c := range w.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq, from := w.seqs[c], w.next[c]
			for i := from; i < len(seq); i++ {
				if !time.Now().Before(deadline) && (w.cycle == 0 || (i-from)%w.cycle == 0) {
					return
				}
				w.exec(e, c, seq[i], false)
			}
			fmt.Fprintf(stderr, "schedbench: client %d ran out of pre-generated ops before the deadline\n", c)
		}(c)
	}
	wg.Wait()
}

func (w *reqWorkload) finish(*env) error { return nil }

// verdict is the output check of one response body.
type verdict struct {
	err    error
	digest uint64
	scheds []schedStat
}

// schedStat is one served schedule (or traffic run) for admitted_frac
// and goodput_per_slot.
type schedStat struct {
	id                string // the same schedule served twice counts once
	admitted, offered float64
	goodput           float64
}

func (w *reqWorkload) checkBody(rec *reqRecord) verdict {
	op := rec.op
	v := verdict{digest: activeDigest(rec.body)}
	if rec.status != 200 {
		v.err = fmt.Errorf("status %d: %.200s", rec.status, rec.body)
		return v
	}
	in := w.insts[op.inst]
	switch {
	case w.kind == "traffic":
		var resp server.TrafficResponse
		if err := json.Unmarshal(rec.body, &resp); err != nil {
			v.err = err
			return v
		}
		switch {
		case resp.Truncated:
			v.err = fmt.Errorf("traffic run truncated at %d slots", resp.Slots)
		case resp.Slots != trafficSlots || resp.N != len(in.links) || resp.Policy != op.policy:
			v.err = fmt.Errorf("traffic echo: slots %d n %d policy %q", resp.Slots, resp.N, resp.Policy)
		case resp.Arrived != resp.Delivered+resp.Dropped+resp.Backlog:
			v.err = fmt.Errorf("conservation: arrived %d != delivered %d + dropped %d + backlog %d",
				resp.Arrived, resp.Delivered, resp.Dropped, resp.Backlog)
		case resp.Attempts != resp.Delivered+resp.FailedTx:
			v.err = fmt.Errorf("attempts %d != delivered %d + failed %d", resp.Attempts, resp.Delivered, resp.FailedTx)
		}
		v.scheds = []schedStat{{id: strconv.Itoa(op.key), admitted: float64(resp.Delivered),
			offered: float64(resp.Arrived), goodput: float64(resp.Delivered) / float64(resp.Slots)}}
		if !rec.warm {
			w.attempts += float64(resp.Attempts)
			w.slots += float64(resp.Slots)
			w.failedTx += float64(resp.FailedTx)
		}
	case op.batch:
		var resp server.BatchResponse
		if err := json.Unmarshal(rec.body, &resp); err != nil {
			v.err = err
			return v
		}
		if len(resp.Results) != len(planAlgos)*len(planEps) {
			v.err = fmt.Errorf("batch returned %d results", len(resp.Results))
			return v
		}
		k := 0
		for _, a := range planAlgos {
			for _, e := range planEps {
				if v.err = w.checkSolve(resp.Results[k], op.inst, a, e, 0, &v); v.err != nil {
					return v
				}
				k++
			}
		}
	default:
		v.err = w.checkSolve(rec.body, op.inst, op.algo, op.eps, op.mc, &v)
	}
	return v
}

// checkSolve checks one solve answer: echoes, activation-set shape,
// Σλ, and Corollary 3.1 re-checked with exact factors; the response's
// own feasible verdict must agree.
func (w *reqWorkload) checkSolve(raw []byte, inst int, algo string, eps float64, mcSlots int, v *verdict) error {
	in := w.insts[inst]
	var resp server.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	n := len(in.links)
	if resp.Algorithm != algo || resp.N != n {
		return fmt.Errorf("solve echo: algorithm %q n %d, want %q %d", resp.Algorithm, resp.N, algo, n)
	}
	if err := checkActive(resp.Active, n); err != nil {
		return err
	}
	if len(resp.SuccessProb) != len(resp.Active) || math.Abs(resp.Throughput-float64(len(resp.Active))) > 1e-9 {
		return fmt.Errorf("%s: %d success probabilities, throughput %v for %d links",
			algo, len(resp.SuccessProb), resp.Throughput, len(resp.Active))
	}
	if mcSlots > 0 && (resp.Simulation == nil || resp.Simulation.Slots != mcSlots) {
		return fmt.Errorf("%s: simulation missing or wrong length", algo)
	}
	feasible, g := exactCheck(in.links, resp.Active, w.params(eps))
	if !feasible {
		return fmt.Errorf("%s eps=%g: schedule of %d links violates Cor. 3.1 under exact factors", algo, eps, len(resp.Active))
	}
	if resp.Feasible != feasible {
		return fmt.Errorf("%s: response says feasible=%v, exact check says %v", algo, resp.Feasible, feasible)
	}
	v.scheds = append(v.scheds, schedStat{id: fmt.Sprintf("%d/%s/%g", inst, algo, eps),
		admitted: float64(len(resp.Active)), offered: float64(n), goodput: g})
	return nil
}

func (w *reqWorkload) params(eps float64) radio.Params {
	p := radio.DefaultParams()
	if w.kind == "scale" {
		p.Alpha = scaleAlpha
	}
	if eps != 0 {
		p.Eps = eps
	}
	return p
}

func (w *reqWorkload) check(o *outcome) {
	// Check every kept body; a repeated request is then held to the
	// verdict and activation sets of its key's first answer. Quality
	// figures count each distinct schedule once, so the few popular
	// instances do not stand in for the whole pool.
	byKey := map[int]*verdict{}
	counted := map[string]bool{}
	own := map[*reqRecord]*verdict{}
	for c := range w.recs {
		for i := range w.recs[c] {
			r := &w.recs[c][i]
			if r.body == nil {
				continue
			}
			v := w.checkBody(r)
			own[r] = &v
			if prev, ok := byKey[r.op.key]; !ok || prev.err != nil {
				byKey[r.op.key] = &v
			}
		}
	}
	for c := range w.recs {
		for i := range w.recs[c] {
			r := &w.recs[c][i]
			o.attempted++
			v := own[r]
			if v == nil {
				v = byKey[r.op.key]
			}
			var err error
			switch {
			case r.err != nil:
				err = r.err
			case v == nil:
				err = fmt.Errorf("no checked answer for key %d", r.op.key)
			case v.err != nil:
				err = v.err
			case r.digest != v.digest:
				err = fmt.Errorf("repeated request %d answered with different activation sets", r.op.key)
			}
			if err != nil {
				o.failed++
				o.fails.add("%s op (key %d): %v", w.kind, r.op.key, err)
				continue
			}
			if r.warm {
				continue
			}
			if w.kind == "scale" {
				fmt.Printf("  scale op: n=%d %-14s %9.1f ms  admitted %.0f\n",
					len(w.insts[r.op.inst].links), r.op.algo, msOf(r.lat), v.scheds[0].admitted)
			}
			o.latencies = append(o.latencies, msOf(r.lat))
			for _, st := range v.scheds {
				if counted[st.id] {
					continue
				}
				counted[st.id] = true
				o.admitNum += st.admitted
				o.admitDen += st.offered
				o.goodput = append(o.goodput, st.goodput)
			}
		}
	}
}

func (w *reqWorkload) layer(m map[string]float64) {
	var reqB, respB, n float64
	for c := range w.recs {
		for _, r := range w.recs[c] {
			if r.warm {
				continue
			}
			reqB += float64(r.op.body.size())
			respB += float64(r.respLen)
			n++
		}
	}
	m["network.request_kb"] = reqB / n / 1024
	m["server.response_kb"] = respB / n / 1024
	m["traffic.attempts_per_slot"] = ratio(w.attempts, w.slots)
	m["traffic.failed_tx_frac"] = ratio(w.failedTx, w.attempts)
}

// sentOrder returns every record (warm-up first) in the order sent.
func (w *reqWorkload) sentOrder() []*reqRecord {
	var all []*reqRecord
	for c := range w.recs {
		for i := range w.recs[c] {
			all = append(all, &w.recs[c][i])
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].warm != all[j].warm {
			return all[i].warm
		}
		return all[i].sent.Before(all[j].sent)
	})
	return all
}

func (w *reqWorkload) replay(r *replayCtx, limit int, budget time.Duration) ([]float64, time.Duration, error) {
	st := newReplayState()
	warmCtx := newReplayCtx(false)
	var lats []float64
	var start time.Time
	for _, rec := range w.sentOrder() {
		if rec.err != nil || rec.status != 200 {
			continue
		}
		if rec.warm {
			if err := w.replayOp(warmCtx, st, noSpan, rec); err != nil {
				return nil, 0, err
			}
			continue
		}
		if start.IsZero() {
			start = time.Now()
		}
		k := len(lats)
		if k >= limit || (k >= w.minReplay && time.Since(start) > budget) {
			break
		}
		if err := w.replayOp(r, st, int32(k), rec); err != nil {
			return nil, 0, err
		}
		lats = append(lats, msOf(rec.lat))
	}
	if start.IsZero() {
		return lats, 0, nil
	}
	return lats, time.Since(start), nil
}

// replayOp makes, in-process, the calls the server makes for one
// request. A request the server answered from its result cache is
// decoded and nothing more; a field is built only on a miss of the
// replay's model of the prepared-field cache.
func (w *reqWorkload) replayOp(r *replayCtx, st *replayState, op int32, rec *reqRecord) error {
	tr := r.tr
	raw := rec.op.body.bytes()
	root := tr.begin(op, noSpan, "op")
	defer tr.end(root)
	sp := tr.begin(op, root, "network.decode")
	var (
		links []network.Link
		q     server.SolveRequest
		bq    server.BatchRequest
		tq    server.TrafficRequest
		err   error
	)
	switch {
	case w.kind == "traffic":
		err = decodeStrict(raw, &tq)
		links = tq.Links
	case rec.op.batch:
		err = decodeStrict(raw, &bq)
		links = bq.Links
	default:
		err = decodeStrict(raw, &q)
		links = q.Links
	}
	if err != nil {
		return err
	}
	ls, err := network.NewLinkSet(links)
	tr.end(sp)
	if err != nil {
		return err
	}
	switch {
	case w.kind == "traffic":
		return w.replayTraffic(r, st, op, root, rec.op.inst, ls, &tq)
	case rec.op.batch:
		for _, c := range bq.Configs {
			if !st.result(resultKey(rec.op.inst, c.Algorithm, c.Eps, c.MCSlots, c.MCSeed)) {
				continue
			}
			p := w.params(c.Eps)
			if err := w.replaySolve(r, st, op, root, rec.op.inst, ls, c.Algorithm, p, bq.Field, bq.Cutoff, c.MCSlots, c.MCSeed); err != nil {
				return err
			}
		}
		return nil
	default:
		if rec.hit {
			st.res.get(resultKey(rec.op.inst, q.Algorithm, q.Eps, q.MCSlots, q.MCSeed))
			return nil
		}
		st.res.put(resultKey(rec.op.inst, q.Algorithm, q.Eps, q.MCSlots, q.MCSeed), struct{}{})
		return w.replaySolve(r, st, op, root, rec.op.inst, ls, q.Algorithm, w.paramsOf(q.Alpha, q.Eps), q.Field, q.Cutoff, q.MCSlots, q.MCSeed)
	}
}

func (w *reqWorkload) paramsOf(alpha, eps float64) radio.Params {
	p := radio.DefaultParams()
	if alpha != 0 {
		p.Alpha = alpha
	}
	if eps != 0 {
		p.Eps = eps
	}
	return p
}

func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replaySolve is the server's solve pipeline: prepared field, Derive,
// the solve, the verify trio as the server calls it, the optional
// Monte-Carlo run, and the response encoding.
func (w *reqWorkload) replaySolve(r *replayCtx, st *replayState, op, root int32, inst int, ls *network.LinkSet,
	algo string, p radio.Params, field string, cutoff float64, mcSlots int, mcSeed uint64) error {
	tr := r.tr
	prep, err := st.prepared(r, op, root, inst, ls, p, field, cutoff)
	if err != nil {
		return err
	}
	sp := tr.begin(op, root, "sched.derive")
	dp, err := prep.Derive(p)
	tr.end(sp)
	if err != nil {
		return err
	}
	a, ok := sched.Lookup(algo)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	stats := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), stats)
	sp = tr.begin(op, root, "sched.solve."+algo)
	s, err := dp.ScheduleInto(ctx, a, nil)
	tr.end(sp)
	if err != nil {
		return err
	}
	pr := dp.Problem()
	sp = tr.begin(op, root, "sched.verify")
	resp := server.SolveResponse{
		Algorithm:        algo,
		N:                pr.N(),
		Field:            pr.FieldName(),
		Active:           s.Active,
		Throughput:       s.Throughput(pr),
		Feasible:         sched.Feasible(pr, s),
		SuccessProb:      sched.SuccessProbabilities(pr, s),
		ExpectedFailures: sched.ExpectedFailures(pr, s),
		Stats:            stats.Stats(),
	}
	tr.end(sp)
	if mcSlots > 0 {
		sp = tr.begin(op, root, "mc.simulate")
		sim, err := mc.Simulate(pr, s, mc.Config{Slots: mcSlots, Seed: mcSeed, Workers: 1})
		tr.end(sp)
		if err != nil {
			return err
		}
		resp.Simulation = &server.SimulationResult{Slots: sim.Slots, MeanFailures: sim.Failures.Mean(),
			CI95: sim.Failures.CI95(), FailureRate: sim.FailureRate()}
		r.sample("mc_slots", float64(mcSlots))
		r.sample("mc_failure_over_eps", sim.FailureRate()/p.Eps)
	}
	sp = tr.begin(op, root, "server.encode")
	_, err = json.Marshal(&resp)
	tr.end(sp)
	m := float64(len(s.Active))
	r.sample("admit_ratio", m/float64(pr.N()))
	r.sample("verify_pairs", 3*m*(m-1))
	return err
}

func (w *reqWorkload) replayTraffic(r *replayCtx, st *replayState, op, root int32, inst int, ls *network.LinkSet, q *server.TrafficRequest) error {
	tr := r.tr
	p := w.paramsOf(q.Alpha, q.Eps)
	prep, err := st.prepared(r, op, root, inst, ls, p, q.Field, q.Cutoff)
	if err != nil {
		return err
	}
	sp := tr.begin(op, root, "sched.derive")
	dp, err := prep.Derive(p)
	tr.end(sp)
	if err != nil {
		return err
	}
	cfg := traffic.Config{Slots: q.Slots, Arrivals: traffic.Bernoulli{P: q.Rate},
		Policy: traffic.Policy(q.Policy), Seed: q.Seed}
	sp = tr.begin(op, root, "traffic.new")
	eng, err := traffic.New(dp, cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for eng.Slot() < cfg.Slots {
		sp = tr.begin(op, root, "traffic.step")
		err := eng.Step(ctx)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	res := eng.Run(ctx) // horizon reached: only assembles the result
	sp = tr.begin(op, root, "server.encode")
	_, err = json.Marshal(trafficResponse(dp.Problem().N(), res))
	tr.end(sp)
	return err
}

// trafficResponse maps an engine result onto the wire form the server
// encodes.
func trafficResponse(n int, res traffic.Result) *server.TrafficResponse {
	san := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	resp := &server.TrafficResponse{
		Policy: res.Policy, Arrivals: res.ArrivalProcess, N: n, Slots: res.Slots, Truncated: res.Truncated,
		Arrived: res.Arrived, Delivered: res.Delivered, Dropped: res.Dropped, FailedTx: res.FailedTx,
		Attempts: res.Attempts, Backlog: res.Backlog,
		LossRate: san(res.LossRate()), GoodputPerSlot: san(res.PerSlotDelivered.Mean()),
		MeanDelay: san(res.Delay.Mean()),
		DelayP50:  san(res.DelayQuantile(0.5)), DelayP90: san(res.DelayQuantile(0.9)), DelayP99: san(res.DelayQuantile(0.99)),
		Drift:      res.Drift,
		Trajectory: make([]server.TrafficTrajectoryPoint, len(res.Trajectory)),
	}
	for i, pt := range res.Trajectory {
		resp.Trajectory[i] = server.TrafficTrajectoryPoint{Slot: pt.Slot, Backlog: pt.Backlog}
	}
	return resp
}
