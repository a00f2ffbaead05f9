package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
)

// solverPhaseNames is every phase span a registered solver opens
// (DESIGN §8's phase table).
var solverPhaseNames = map[string]bool{
	"sort": true, "insert": true, "eliminate": true, "classes": true,
	"partition": true, "rounds": true, "prep": true, "search": true,
	"tile_partition": true, "tile_solve": true, "tile_merge": true,
}

// recordedTrace polls the flight recorder for a trace: the middleware
// records after the handler returns, which can trail the client seeing
// the response.
func recordedTrace(t *testing.T, srv *Server, id string) obs.TraceSnapshot {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if snap, ok := srv.recorder.Get(id); ok {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the recorder", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSolveTraceShowsSolverPhases: a traced /v1/solve shows the
// algorithm's phases, with their counters, as children of the request's
// solve span — the same phases and counters the response stats report.
func TestSolveTraceShowsSolverPhases(t *testing.T) {
	srv := New(Config{TraceSampleEvery: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	body, err := json.Marshal(SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 40, 9)})
	if err != nil {
		t.Fatal(err)
	}
	const id = "5050505050505050"
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Trace-Id", id)
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var out SolveResponse
	if err := json.Unmarshal(readAll(t, resp.Body), &out); err != nil {
		t.Fatal(err)
	}

	snap := recordedTrace(t, srv, id)
	var solve obs.SpanSnapshot
	for _, sp := range snap.Spans {
		if sp.Name == "solve" {
			solve = sp
		}
	}
	if solve.Attrs[obs.KeyAlgorithm] != "greedy" || solve.Attrs[obs.KeyLinks] != int64(40) {
		t.Fatalf("solve span lacks the solve root's attributes: %+v", solve.Attrs)
	}
	var phases []string
	for _, sp := range snap.Spans {
		if sp.Parent != solve.ID {
			continue
		}
		phases = append(phases, sp.Name)
		for k, v := range sp.Attrs {
			if out.Stats.Counter(k) != v {
				t.Errorf("span %s counter %s = %v, response stats say %d", sp.Name, k, v, out.Stats.Counter(k))
			}
		}
	}
	if !reflect.DeepEqual(phases, []string{"sort", "insert"}) {
		t.Fatalf("solve span children = %v, want [sort insert]", phases)
	}
}

// statsShape is the timing-free part of a SolveStats.
type statsShape struct {
	Algorithm string
	Phases    []string
	Counters  map[string]int64
}

func shapeOf(st *obs.SolveStats) statsShape {
	s := statsShape{Algorithm: st.Algorithm, Counters: st.Counters}
	for _, p := range st.Phases {
		s.Phases = append(s.Phases, p.Name)
	}
	return s
}

// TestBatchStatsSurviveArenaOverflow: a batch big enough to overflow
// the request's span arena, recorded at SampleEvery 1, returns the same
// per-config phases and counters as the same batch with tracing off.
func TestBatchStatsSurviveArenaOverflow(t *testing.T) {
	links := paperLinks(t, 60, 13)
	var configs []BatchConfig
	for _, algo := range []string{"greedy", "rle", "ldp", "ldp-banded", "approxlogn", "approxdiversity", "dls", "greedy-sharded"} {
		for k := 1; k <= 6; k++ {
			c := BatchConfig{Algorithm: algo, Eps: 0.01 * float64(k)}
			if algo == "greedy-sharded" {
				c.Shards = 4
			}
			configs = append(configs, c)
		}
	}
	req := BatchRequest{Links: links, Configs: configs}
	const id = "0b0b0b0b0b0b0b0b"

	run := func(cfg Config) ([]statsShape, *Server) {
		srv := New(cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("X-Trace-Id", id)
		resp, err := ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		out := decodeBatch(t, resp)
		shapes := make([]statsShape, len(out.Results))
		for i, raw := range out.Results {
			var r SolveResponse
			if err := json.Unmarshal(raw, &r); err != nil || r.Stats == nil {
				t.Fatalf("config %d: no stats in %s (%v)", i, raw, err)
			}
			shapes[i] = shapeOf(r.Stats)
		}
		return shapes, srv
	}

	traced, srv := run(Config{TraceSampleEvery: 1})
	defer srv.Close()
	untraced, off := run(Config{TraceRing: -1})
	defer off.Close()

	if snap := recordedTrace(t, srv, id); snap.DroppedSpans == 0 {
		t.Fatalf("batch of %d configs fit the request arena (%d spans); the test needs an overflow",
			len(configs), len(snap.Spans))
	}
	for i := range configs {
		if !reflect.DeepEqual(traced[i], untraced[i]) {
			t.Errorf("config %d (%s): traced stats %+v, untraced %+v", i, configs[i].Algorithm, traced[i], untraced[i])
		}
	}
}

// TestSessionAndTrafficTracesHaveNoSolverPhases: session events and
// traffic slots solve under the request trace without installing a
// solve tracer, so their traces carry no solver phase spans (a traffic
// run would otherwise fill the arena with them).
func TestSessionAndTrafficTracesHaveNoSolverPhases(t *testing.T) {
	srv, ts := newSessionServer(t, Config{TraceSampleEvery: 1})
	links := paperLinks(t, 12, 31)

	created := createSession(t, ts, SessionRequest{Algorithm: "greedy", Links: links})
	st := openStream(t, ts, created.SessionID)
	st.send(network.SessionEvent{Type: network.EventRetune, Eps: 0.02})
	if d, raw := st.recv(); d.Error != "" {
		t.Fatalf("retune rejected: %s", raw)
	}
	st.closeWrite()
	streamTrace := st.resp.Header.Get("X-Trace-Id")

	body, err := json.Marshal(TrafficRequest{Links: links, Slots: 50, Rate: 0.2, Policy: "maxweight", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const trafficTrace = "7a7a7a7a7a7a7a7a"
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/traffic", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Trace-Id", trafficTrace)
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	if b := readAll(t, resp.Body); resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic: status %d: %s", resp.StatusCode, b)
	}

	for _, id := range []string{streamTrace, trafficTrace} {
		snap := recordedTrace(t, srv, id)
		var leaked []string
		for _, sp := range snap.Spans {
			if solverPhaseNames[sp.Name] {
				leaked = append(leaked, sp.Name)
			}
		}
		sort.Strings(leaked)
		if len(leaked) > 0 {
			t.Errorf("trace %s (%s) carries solver phase spans %v", id, snap.Name, leaked)
		}
	}
}
