package sched

import (
	"context"
	"sort"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
)

// namedAlgo is a registry probe with a configurable name.
type namedAlgo struct{ name string }

func (a namedAlgo) Name() string { return a.name }
func (a namedAlgo) Solve(context.Context, *Problem, *Scratch, []int) (Schedule, error) {
	return NewSchedule(a.name, nil), nil
}

// TestRegistryTable drives Register/Lookup/Names through a table of
// registration scenarios, including duplicates against both built-in
// and freshly registered names.
func TestRegistryTable(t *testing.T) {
	cases := []struct {
		name    string
		algo    Algorithm
		wantErr bool
	}{
		{"fresh name registers", namedAlgo{"zz-test-fresh"}, false},
		{"duplicate of fresh name", namedAlgo{"zz-test-fresh"}, true},
		{"duplicate of builtin rle", namedAlgo{"rle"}, true},
		{"duplicate of builtin exact", namedAlgo{"exact"}, true},
		{"second fresh name registers", namedAlgo{"zz-test-fresh2"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Register(tc.algo)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Register(%q) error = %v, wantErr %v", tc.algo.Name(), err, tc.wantErr)
			}
		})
	}

	// Lookup resolves what registered and only that.
	for _, name := range []string{"zz-test-fresh", "zz-test-fresh2", "rle", "exact"} {
		if a, ok := Lookup(name); !ok || a.Name() != name {
			t.Errorf("Lookup(%q) = %v, %v", name, a, ok)
		}
	}
	if _, ok := Lookup("zz-test-never-registered"); ok {
		t.Error("Lookup resolved a never-registered name")
	}

	// Names is sorted and contains every registration.
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Errorf("Names() contains duplicate %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"zz-test-fresh", "zz-test-fresh2", "ldp", "rle", "exact", "dls", "greedy"} {
		if !seen[want] {
			t.Errorf("Names() missing %q: %v", want, names)
		}
	}
}

// TestRegistryConcurrentSolve runs every built-in algorithm through
// Lookup+Schedule from many goroutines sharing one Problem, while
// other goroutines churn Register/Names. Under -race (scripts/check.sh)
// this is the registry's and the solvers' shared-state race test; in
// any mode it checks cross-goroutine determinism of every algorithm.
func TestRegistryConcurrentSolve(t *testing.T) {
	// 24 links: large enough for non-trivial schedules, inside the
	// registered Exact solver's DefaultExactMaxN.
	ls, err := network.Generate(network.PaperConfig(24), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := MustNewProblem(ls, radio.DefaultParams())
	algos := []string{"ldp", "ldp-banded", "rle", "approxlogn", "approxdiversity", "greedy", "dls", "exact"}

	// Reference schedules, solved serially.
	want := make(map[string][]int, len(algos))
	for _, name := range algos {
		a, ok := Lookup(name)
		if !ok {
			t.Fatalf("algorithm %q not registered", name)
		}
		want[name] = Run(a, pr).Active
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < len(algos); k++ {
				name := algos[(g+k)%len(algos)]
				a, ok := Lookup(name)
				if !ok {
					t.Errorf("Lookup(%q) failed mid-run", name)
					return
				}
				got := Run(a, pr).Active
				if len(got) != len(want[name]) {
					t.Errorf("%q nondeterministic under concurrency: %v vs %v", name, got, want[name])
					return
				}
				for i := range got {
					if got[i] != want[name][i] {
						t.Errorf("%q nondeterministic under concurrency: %v vs %v", name, got, want[name])
						return
					}
				}
			}
		}(g)
	}
	// Churn the registry's write path concurrently with the solves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			Register(namedAlgo{"rle"}) // always a duplicate: exercises the lock, never mutates
			Names()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
