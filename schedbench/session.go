package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/server"
)

// Session workload shape. Every block of sessionBlock events holds the
// event types in fixed numbers, in a seeded order, and each client
// drops its stream every sessionReconnect events. Moves shift a link by
// up to sessionStep per axis, half the region, so over a run the
// geometry, and with it the schedule size, averages over many
// configurations. The region is wider than the paper's so that a
// schedule holds hundreds of links.
const (
	sessionN         = 2000
	sessionRegion    = 4000
	sessionWarm      = 16 // events per client before timing
	sessionReconnect = 250
	sessionCheck     = 25 // events between full checks of the mirrored state
	sessionStep      = 2000.0
	sessionBlock     = 100
)

// sessionMix is how many of each event type a block holds: adds and
// removes (field rebuilds) are 2%, so the p99 latency sits inside
// the rebuild class rather than on its edge.
var sessionMix = []struct {
	typ   string
	count int
}{{network.EventMove, 96}, {network.EventRetune, 2}, {network.EventAdd, 1}, {network.EventRemove, 1}}

// sessionAlgos gives each client's session its algorithm.
var sessionAlgos = []string{"greedy", "rle"}

type sessEvent struct {
	ev   network.SessionEvent
	line []byte
}

// sessRecord is one event as the client saw it.
type sessRecord struct {
	sent      time.Time
	lat       time.Duration
	reconnect bool // the stream was dropped and resumed before this event
	delta     []byte
	err       error
	warm      bool
}

type sessClient struct {
	algo    string
	links   []network.Link // as registered
	reg     body
	events  []sessEvent
	id      string
	created server.SessionResponse
	stream  *eventStream
	next    int
	recs    []sessRecord
	retries int
	final   server.SessionResponse
}

// sessionWorkload: each client registers one dense n=2000 session and
// streams events over it, one event answered by its delta at a time.
type sessionWorkload struct {
	cl []*sessClient
}

func (w *sessionWorkload) clients() int { return len(sessionAlgos) }

func (w *sessionWorkload) generate(seed uint64, seconds, clients int) error {
	for c := 0; c < clients; c++ {
		in, err := newInstance(seed, uint64(3000+c), sessionN, sessionRegion)
		if err != nil {
			return err
		}
		cl := &sessClient{algo: sessionAlgos[c], links: in.links}
		cl.reg = body{[]byte(fmt.Sprintf(`{"algorithm":%q,"links":`, cl.algo)), in.json, []byte("}")}
		links := slices.Clone(in.links)
		eps := radio.DefaultParams().Eps
		src := rng.Stream(seed, "schedbench/session", uint64(c))
		var types []string
		for len(types) < sessionWarm+seconds*1500 {
			var block []string
			for _, m := range sessionMix {
				for k := 0; k < m.count; k++ {
					block = append(block, m.typ)
				}
			}
			rng.Shuffle(src, block)
			types = append(types, block...)
		}
		for _, typ := range types {
			var ev network.SessionEvent
			switch typ {
			case network.EventRetune:
				if eps == 0.01 {
					eps = 0.05
				} else {
					eps = 0.01
				}
				ev = network.SessionEvent{Type: network.EventRetune, Eps: eps}
			case network.EventAdd:
				s := geom.Point{X: src.Float64() * sessionRegion, Y: src.Float64() * sessionRegion}
				dx, dy := src.InAnnulusLength(5, 20)
				l := network.Link{Sender: s, Receiver: s.Add(dx, dy), Rate: 1}
				links = append(links, l)
				ev = network.SessionEvent{Type: network.EventAdd, Add: &l}
			case network.EventRemove:
				k := src.IntN(len(links))
				links = append(links[:k], links[k+1:]...)
				ev = network.SessionEvent{Type: network.EventRemove, Link: k}
			default:
				k := src.IntN(len(links))
				dx := reflect(links[k].Sender.X, src.UniformRange(-sessionStep, sessionStep))
				dy := reflect(links[k].Sender.Y, src.UniformRange(-sessionStep, sessionStep))
				s, r := links[k].Sender.Add(dx, dy), links[k].Receiver.Add(dx, dy)
				links[k].Sender, links[k].Receiver = s, r
				ev = network.SessionEvent{Type: network.EventMove, Link: k, Sender: &s, Receiver: &r}
			}
			ev.V = network.SessionWireVersion
			b, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			cl.events = append(cl.events, sessEvent{ev: ev, line: append(b, '\n')})
		}
		w.cl = append(w.cl, cl)
	}
	return nil
}

// reflect turns a step d from coordinate x around at the region's
// edges, so moving senders stay inside the deployment area.
func reflect(x, d float64) float64 {
	if x+d < 0 || x+d > sessionRegion {
		return -d
	}
	return d
}

// eventStream is the client side of one full-duplex event stream: a
// pipe feeds the request body while deltas are read line by line.
type eventStream struct {
	pw     *io.PipeWriter
	resp   *http.Response
	rd     *bufio.Reader
	cancel context.CancelFunc
}

// openStream opens the session's event stream; a non-200 answer is
// returned as its status with a nil stream.
func openStream(e *env, id string) (*eventStream, int, error) {
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+"/v1/session/"+id+"/events", pr)
	if err != nil {
		cancel()
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := e.client.Do(req)
	if err != nil {
		pw.Close()
		cancel()
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		pw.Close()
		cancel()
		return nil, resp.StatusCode, nil
	}
	return &eventStream{pw: pw, resp: resp, rd: bufio.NewReaderSize(resp.Body, 64<<10), cancel: cancel}, 200, nil
}

func (s *eventStream) exchange(line []byte) ([]byte, error) {
	if _, err := s.pw.Write(line); err != nil {
		return nil, err
	}
	return s.rd.ReadBytes('\n')
}

// abort drops the stream mid-session with no clean end, as a mobile
// client losing its connection does.
func (s *eventStream) abort() {
	s.pw.CloseWithError(io.ErrClosedPipe)
	s.resp.Body.Close()
	s.cancel()
}

// closeClean ends the event stream with EOF and waits for the server to
// finish the response.
func (s *eventStream) closeClean() {
	s.pw.Close()
	io.Copy(io.Discard, s.resp.Body)
	s.resp.Body.Close()
	s.cancel()
}

// reopen opens a new stream for the session, retrying while the server
// still holds the dropped stream's slot (409).
func (cl *sessClient) reopen(e *env) error {
	giveUp := time.Now().Add(10 * time.Second)
	for {
		st, status, err := openStream(e, cl.id)
		switch {
		case err != nil:
			return err
		case status == 200:
			cl.stream = st
			return nil
		case status != http.StatusConflict || time.Now().After(giveUp):
			return fmt.Errorf("opening event stream: status %d", status)
		}
		cl.retries++
		time.Sleep(time.Millisecond)
	}
}

func (w *sessionWorkload) warm(e *env) error {
	errs := make([]error, len(w.cl))
	var wg sync.WaitGroup
	for c, cl := range w.cl {
		wg.Add(1)
		go func(c int, cl *sessClient) {
			defer wg.Done()
			errs[c] = cl.register(e)
		}(c, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (cl *sessClient) register(e *env) error {
	r, err := e.post("/v1/session", cl.reg)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("registering session: status %d: %.200s", r.status, r.body)
	}
	if err := json.Unmarshal(r.body, &cl.created); err != nil {
		return err
	}
	cl.id = cl.created.SessionID
	if err := cl.reopen(e); err != nil {
		return err
	}
	for ; cl.next < sessionWarm; cl.next++ {
		cl.send(e, cl.next, true, false)
	}
	for _, rec := range cl.recs {
		if rec.err != nil {
			return fmt.Errorf("warm-up event: %w", rec.err)
		}
	}
	return nil
}

// send exchanges event i for its delta; with reconnect set it first
// drops the stream, resumes via /deltas and reopens, all counted in
// this event's latency.
func (cl *sessClient) send(e *env, i int, warm, reconnect bool) {
	t0 := time.Now()
	rec := sessRecord{sent: t0, warm: warm, reconnect: reconnect}
	if reconnect {
		rec.err = cl.resume(e)
	}
	if rec.err == nil {
		rec.delta, rec.err = cl.stream.exchange(cl.events[i].line)
	}
	rec.lat = time.Since(t0)
	cl.recs = append(cl.recs, rec)
}

func (cl *sessClient) resume(e *env) error {
	cl.stream.abort()
	seq := uint64(len(cl.recs))
	r, err := e.get(fmt.Sprintf("/v1/session/%s/deltas?seq=%d", cl.id, seq))
	if err != nil {
		return err
	}
	if r.status != http.StatusOK || len(r.body) != 0 || r.header.Get("X-Session-Seq") != strconv.FormatUint(seq, 10) {
		return fmt.Errorf("resume at seq %d: status %d, session seq %s, %d bytes of missed deltas",
			seq, r.status, r.header.Get("X-Session-Seq"), len(r.body))
	}
	return cl.reopen(e)
}

func (w *sessionWorkload) drive(e *env, deadline time.Time) {
	var wg sync.WaitGroup
	for _, cl := range w.cl {
		wg.Add(1)
		go func(cl *sessClient) {
			defer wg.Done()
			from := cl.next
			for ; cl.next < len(cl.events); cl.next++ {
				if !time.Now().Before(deadline) {
					return
				}
				n := cl.next - from
				cl.send(e, cl.next, false, n > 0 && n%sessionReconnect == 0)
				if cl.recs[len(cl.recs)-1].err != nil {
					cl.next++
					return // the stream is gone; the check counts the failure
				}
			}
			fmt.Fprintln(stderr, "schedbench: session client ran out of pre-generated events before the deadline")
		}(cl)
	}
	wg.Wait()
}

func (w *sessionWorkload) finish(e *env) error {
	for _, cl := range w.cl {
		if cl.stream != nil {
			cl.stream.closeClean()
		}
		r, err := e.get("/v1/session/" + cl.id)
		if err != nil {
			return err
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("GET session state: status %d", r.status)
		}
		if err := json.Unmarshal(r.body, &cl.final); err != nil {
			return err
		}
	}
	return nil
}

// mirror is the client's replica of a session, built from its own
// events and the server's deltas.
type mirror struct {
	links  []network.Link
	active []int
	eps    float64
	seq    uint64
}

func (m *mirror) apply(ev *network.SessionEvent, raw []byte) error {
	d, err := network.DecodeSessionDelta(raw)
	if err != nil {
		return err
	}
	if d.Error != "" {
		return fmt.Errorf("event rejected: %s", d.Error)
	}
	if d.Seq != m.seq+1 {
		return fmt.Errorf("delta seq %d after %d", d.Seq, m.seq)
	}
	switch ev.Type {
	case network.EventMove:
		m.links[ev.Link].Sender, m.links[ev.Link].Receiver = *ev.Sender, *ev.Receiver
	case network.EventAdd:
		m.links = append(m.links, *ev.Add)
	case network.EventRemove:
		m.links = append(m.links[:ev.Link], m.links[ev.Link+1:]...)
		m.active = sched.RenumberAfterRemove(m.active, ev.Link)
	case network.EventRetune:
		m.eps = ev.Eps
	}
	if d.N != len(m.links) {
		return fmt.Errorf("delta n %d, mirror has %d links", d.N, len(m.links))
	}
	set := make(map[int]bool, len(m.active)+len(d.Entered))
	for _, i := range m.active {
		set[i] = true
	}
	for _, i := range d.Left {
		if !set[i] {
			return fmt.Errorf("link %d left but was not active", i)
		}
		delete(set, i)
	}
	for _, i := range d.Entered {
		if set[i] {
			return fmt.Errorf("link %d entered but was already active", i)
		}
		set[i] = true
	}
	m.active = m.active[:0]
	for i := range set {
		m.active = append(m.active, i)
	}
	slices.Sort(m.active)
	m.seq = d.Seq
	return nil
}

func (m *mirror) params() radio.Params {
	p := radio.DefaultParams()
	p.Eps = m.eps
	return p
}

// check replays each client's deltas onto its mirror. admitted_frac runs
// over every timed event's schedule and goodput over every checked
// state, both sessions pooled.
func (w *sessionWorkload) check(o *outcome) {
	for c, cl := range w.cl {
		var sessNum, sessDen float64
		m := &mirror{links: slices.Clone(cl.links), active: slices.Clone(cl.created.Active),
			eps: cl.created.Eps, seq: cl.created.Seq}
		broken := false
		for i, rec := range cl.recs {
			o.attempted++
			err := rec.err
			if err == nil && broken {
				err = fmt.Errorf("mirror diverged earlier")
			}
			if err == nil {
				err = m.apply(&cl.events[i].ev, rec.delta)
			}
			// Every sessionCheck events, and wherever the stream was dropped
			// and resumed, the mirrored state is checked against Cor. 3.1 in
			// full; these checks also sample goodput.
			if err == nil && (rec.reconnect || i%sessionCheck == 0) {
				err = checkState(m, &o.goodput)
			}
			if err != nil {
				broken = true
				o.failed++
				o.fails.add("session %d event %d: %v", c, i, err)
				continue
			}
			if !rec.warm {
				o.latencies = append(o.latencies, msOf(rec.lat))
				sessNum += float64(len(m.active))
				sessDen += float64(len(m.links))
				o.admitNum += float64(len(m.active))
				o.admitDen += float64(len(m.links))
			}
		}
		if broken {
			continue
		}
		fmt.Printf("  session %d (%s): %d events, %d stream retries, admitted %.4f\n",
			c, cl.algo, len(cl.recs), cl.retries, sessNum/sessDen)
		f := cl.final
		linksJSON, _ := json.Marshal(m.links)
		finalJSON, _ := json.Marshal(f.Links)
		switch {
		case f.Seq != m.seq || f.N != len(m.links) || f.Eps != m.eps:
			o.failed++
			o.fails.add("session %d final state: seq %d n %d eps %g, mirror %d %d %g", c, f.Seq, f.N, f.Eps, m.seq, len(m.links), m.eps)
		case !slices.Equal(f.Active, m.active) || string(linksJSON) != string(finalJSON):
			o.failed++
			o.fails.add("session %d final state differs from the mirror of applied deltas", c)
		default:
			if err := checkState(m, &o.goodput); err != nil {
				o.failed++
				o.fails.add("session %d final state: %v", c, err)
			}
		}
	}
}

// checkState re-checks a mirrored schedule with exact factors and adds
// its expected goodput to good.
func checkState(m *mirror, good *[]float64) error {
	feasible, g := exactCheck(m.links, m.active, m.params())
	if !feasible {
		return fmt.Errorf("schedule of %d links at seq %d violates Cor. 3.1 under exact factors", len(m.active), m.seq)
	}
	*good = append(*good, g)
	return nil
}

func (w *sessionWorkload) layer(m map[string]float64) {
	var reqB, respB, n, retries float64
	for _, cl := range w.cl {
		retries += float64(cl.retries)
		for i, r := range cl.recs {
			if r.warm {
				continue
			}
			reqB += float64(len(cl.events[i].line))
			respB += float64(len(r.delta))
			n++
		}
	}
	m["network.request_kb"] = reqB / n / 1024
	m["server.response_kb"] = respB / n / 1024
	m["server.stream_retries"] = retries
}

// sessReplay is one session's in-process state during the replay: the
// Editor the server keeps, the active set and the reused buffers.
type sessReplay struct {
	cl            *sessClient
	algo          sched.Algorithm
	ed            *mobility.Editor
	active, spare []int
	entered, left []int
	seq           uint64
}

func (w *sessionWorkload) replay(r *replayCtx, limit int, budget time.Duration) ([]float64, time.Duration, error) {
	type ref struct {
		s   *sessReplay
		i   int
		rec *sessRecord
	}
	var order []ref
	for c, cl := range w.cl {
		s := &sessReplay{cl: cl}
		a, ok := sched.Lookup(cl.algo)
		if !ok {
			return nil, 0, fmt.Errorf("unknown algorithm %q", cl.algo)
		}
		s.algo = a
		if err := s.register(r, int32(-1-c)); err != nil {
			return nil, 0, err
		}
		for i := range cl.recs {
			if cl.recs[i].err != nil {
				break
			}
			order = append(order, ref{s, i, &cl.recs[i]})
		}
	}
	slices.SortStableFunc(order, func(a, b ref) int {
		if a.rec.warm != b.rec.warm {
			if a.rec.warm {
				return -1
			}
			return 1
		}
		return a.rec.sent.Compare(b.rec.sent)
	})
	warmCtx := newReplayCtx(false)
	var lats []float64
	var start time.Time
	for _, o := range order {
		if o.rec.warm {
			if err := o.s.event(warmCtx, noSpan, o.i); err != nil {
				return nil, 0, err
			}
			continue
		}
		if start.IsZero() {
			start = time.Now()
		}
		k := len(lats)
		if k >= limit || (k > 0 && time.Since(start) > budget) {
			break
		}
		if err := o.s.event(r, int32(k), o.i); err != nil {
			return nil, 0, err
		}
		lats = append(lats, msOf(o.rec.lat))
	}
	if start.IsZero() {
		return lats, 0, nil
	}
	return lats, time.Since(start), nil
}

// register is session creation: decode, the dense field build, and the
// initial solve.
func (s *sessReplay) register(r *replayCtx, op int32) error {
	tr := r.tr
	root := tr.begin(op, noSpan, "op")
	defer tr.end(root)
	sp := tr.begin(op, root, "network.decode")
	var q server.SessionRequest
	if err := decodeStrict(s.cl.reg.bytes(), &q); err != nil {
		return err
	}
	ls, err := network.NewLinkSet(q.Links)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(op, root, "sched.dense_build")
	prep, err := sched.PrepareContext(context.Background(), ls, radio.DefaultParams(), sched.WithDenseField())
	tr.end(sp)
	if err != nil {
		return err
	}
	r.sample("field_pairs", fieldPairs(prep.Problem()))
	sp = tr.begin(op, root, "sched.solve."+s.cl.algo)
	sch, err := prep.ScheduleInto(context.Background(), s.algo, nil)
	tr.end(sp)
	s.ed = mobility.NewEditor(prep, sched.WithDenseField())
	s.active = sch.Active
	return err
}

// event is the server's per-event path: decode, Editor.ApplyContext,
// the re-solve into the spare buffer, the diff, and the delta encoding.
func (s *sessReplay) event(r *replayCtx, op int32, i int) error {
	tr := r.tr
	root := tr.begin(op, noSpan, "op")
	defer tr.end(root)
	sp := tr.begin(op, root, "network.decode")
	ev, err := network.DecodeSessionEvent(s.cl.events[i].line[:len(s.cl.events[i].line)-1])
	tr.end(sp)
	if err != nil {
		return err
	}
	layer := "mobility." + ev.Type
	if ev.Type == network.EventAdd || ev.Type == network.EventRemove {
		layer = "mobility.rebuild"
	}
	ctx := context.Background()
	sp = tr.begin(op, root, layer)
	err = s.ed.ApplyContext(ctx, &ev)
	tr.end(sp)
	if err != nil {
		return err
	}
	if ev.Type == network.EventRemove {
		s.active = sched.RenumberAfterRemove(s.active, ev.Link)
	}
	sp = tr.begin(op, root, "sched.solve."+s.cl.algo)
	sch, err := s.ed.Prepared().ScheduleInto(ctx, s.algo, s.spare[:0])
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(op, root, "sched.diff")
	s.entered, s.left = sched.DiffSchedulesInto(s.active, sch.Active, s.entered, s.left)
	tr.end(sp)
	s.spare, s.active = s.active, sch.Active
	s.seq++
	sp = tr.begin(op, root, "server.encode")
	_, err = json.Marshal(&network.SessionDelta{
		V: network.SessionWireVersion, Seq: s.seq, Event: ev.Type, N: s.ed.N(),
		Entered: s.entered, Left: s.left, Throughput: sch.Throughput(s.ed.Prepared().Problem()),
	})
	tr.end(sp)
	r.sample("delta_links", float64(len(s.entered)+len(s.left)))
	r.sample("admit_ratio", float64(len(s.active))/float64(s.ed.N()))
	return err
}
