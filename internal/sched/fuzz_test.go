package sched

import (
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
)

// FuzzSparseNeverOverAdmits hardens the sparse backend's safety
// contract under fuzzed instance geometry, model parameters, and
// truncation aggressiveness: whatever schedule an algorithm produces on
// a truncated field must remain feasible under the exact dense factors.
// Truncation may only cost throughput, never correctness.
func FuzzSparseNeverOverAdmits(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(30), uint8(2), uint8(1))
	f.Add(uint64(7), uint8(5), uint8(4), uint8(2))
	f.Add(uint64(42), uint8(255), uint8(1), uint8(3))
	f.Add(uint64(2017), uint8(20), uint8(3), uint8(0))

	f.Fuzz(func(t *testing.T, seed uint64, nRaw, cutRaw, alphaRaw uint8) {
		n := 4 + int(nRaw)%37 // 4..40 links
		cfg := network.PaperConfig(n)
		cfg.Region = 150 // dense enough that interference actually binds
		ls, err := network.Generate(cfg, seed, 0)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		p := radio.DefaultParams()
		p.Alpha = []float64{2.5, 3, 4, 5}[int(alphaRaw)%4]
		// Cutoffs from "store everything" to "γ_ε itself" — the latter
		// truncates nearly every factor and leans fully on the tail bound.
		cutoff := p.GammaEps() * math.Pow(10, -float64(int(cutRaw)%5))

		dense := MustNewProblem(ls, p)
		sparse, err := NewProblem(ls, p, WithSparseField(SparseOptions{Cutoff: cutoff}))
		if err != nil {
			t.Fatalf("sparse problem: %v", err)
		}
		for _, a := range []Algorithm{Greedy{}, RLE{}, DLS{Seed: seed}} {
			s := Run(a, sparse)
			if v := Verify(sparse, s); len(v) != 0 {
				t.Fatalf("n=%d cutoff=%v: %s fails its own sparse verify: %v",
					n, cutoff, a.Name(), v[0])
			}
			if v := Verify(dense, s); len(v) != 0 {
				t.Fatalf("n=%d cutoff=%v: %s sparse schedule infeasible on dense: %v",
					n, cutoff, a.Name(), v[0])
			}
		}
	})
}
