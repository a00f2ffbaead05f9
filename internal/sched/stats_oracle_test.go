package sched

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
)

var updateStatsOracle = flag.Bool("update-stats-oracle", false,
	"rewrite testdata/stats_oracle.json from the current solvers")

const statsOraclePath = "testdata/stats_oracle.json"

// statsOracleCase is one pinned solve: the phase names in report
// order, and every counter the solve reports. A nil counter value pins
// the key only — Exact's parallel search counters depend on how the
// subtree workers interleave.
type statsOracleCase struct {
	Name      string            `json:"name"`
	Algorithm string            `json:"algorithm"`
	Phases    []string          `json:"phases"`
	Counters  map[string]*int64 `json:"counters"`
}

// exactRacyCounters are the Exact counters whose values depend on
// worker scheduling (incumbent sharing decides what gets pruned).
var exactRacyCounters = map[string]bool{
	obs.KeyNodesExpanded: true,
	obs.KeyBoundCutoffs:  true,
	obs.KeyInfeasible:    true,
	obs.KeyIncumbents:    true,
}

// statsOracleSolves runs every built-in algorithm (plus a four-tile
// greedy-sharded) on fixed seeded dense and sparse instances, and Exact
// on a small one, each under a fresh tracer.
func statsOracleSolves(t *testing.T) []statsOracleCase {
	t.Helper()
	build := func(n int, seed uint64, opts ...Option) *Problem {
		ls, err := network.Generate(network.PaperConfig(n), seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := NewProblem(ls, radio.DefaultParams(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	instances := []struct {
		name string
		pr   *Problem
	}{
		{"dense-n120", build(120, 7)},
		{"sparse-n120", build(120, 7, WithSparseField(SparseOptions{Cutoff: 1e-6}))},
	}
	// The built-in registrations by name (other tests register extras,
	// so the registry's contents depend on which tests ran first).
	var algos []Algorithm
	for _, name := range []string{"approxdiversity", "approxlogn", "dls", "greedy",
		"greedy-sharded", "ldp", "ldp-banded", "rle"} {
		a, ok := Lookup(name)
		if !ok {
			t.Fatalf("algorithm %q not registered", name)
		}
		algos = append(algos, a)
	}
	algos = append(algos, Sharded{Shards: 4})

	var out []statsOracleCase
	run := func(label string, a Algorithm, pr *Problem) {
		tr := obs.NewTracer()
		if _, err := ScheduleContext(obs.WithTracer(context.Background(), tr), a, pr); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		st := tr.Stats()
		c := statsOracleCase{Name: label, Algorithm: st.Algorithm, Phases: []string{}, Counters: map[string]*int64{}}
		for _, p := range st.Phases {
			c.Phases = append(c.Phases, p.Name)
		}
		for k, v := range st.Counters {
			if a.Name() == "exact" && exactRacyCounters[k] {
				c.Counters[k] = nil
				continue
			}
			v := v
			c.Counters[k] = &v
		}
		out = append(out, c)
	}
	for _, inst := range instances {
		for _, a := range algos {
			label := a.Name() + "/" + inst.name
			if sh, ok := a.(Sharded); ok && sh.Shards > 0 {
				label = a.Name() + "-4/" + inst.name
			}
			run(label, a, inst.pr)
		}
	}
	run("exact/dense-n20", Exact{}, build(20, 3))
	return out
}

// TestSolveStatsOracle pins what every algorithm reports through the
// solve tracer — phase names in order, counter keys, and every counter
// value that is deterministic at any GOMAXPROCS — so the tracing layer
// can be rebuilt without silently changing the response stats.
// Regenerate with -update-stats-oracle after an intended change.
func TestSolveStatsOracle(t *testing.T) {
	got := statsOracleSolves(t)
	if *updateStatsOracle {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(statsOraclePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsOraclePath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(statsOraclePath)
	if err != nil {
		t.Fatal(err)
	}
	var want []statsOracleCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("oracle has %d cases, solves produced %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			gb, _ := json.Marshal(got[i])
			wb, _ := json.Marshal(want[i])
			t.Errorf("case %s:\n got %s\nwant %s", want[i].Name, gb, wb)
		}
	}
}
