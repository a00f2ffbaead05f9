package mc

import (
	"math"
	"testing"

	"repro/internal/sched"
)

func TestAdaptiveValidation(t *testing.T) {
	pr := denseProblem(t, 10, 1)
	s := fullSchedule(pr)
	if _, err := SimulateAdaptive(pr, s, AdaptiveConfig{}); err == nil {
		t.Error("zero TargetCI accepted")
	}
	if _, err := SimulateAdaptive(pr, s, AdaptiveConfig{TargetCI: 0.1, BatchSlots: -5}); err == nil {
		t.Error("negative batch accepted")
	}
}

func TestAdaptiveStopsEarlyOnQuietSchedules(t *testing.T) {
	// A feasible RLE schedule has near-zero failure variance: the
	// adaptive run must finish after one batch.
	pr := denseProblem(t, 150, 2)
	s := sched.Run(sched.RLE{}, pr)
	res, err := SimulateAdaptive(pr, s, AdaptiveConfig{TargetCI: 0.05, BatchSlots: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 100 {
		t.Errorf("quiet schedule used %d slots, want one batch of 100", res.Slots)
	}
	if res.Failures.CI95() > 0.05 {
		t.Errorf("CI %v above target", res.Failures.CI95())
	}
}

func TestAdaptiveSpendsMoreOnNoisySchedules(t *testing.T) {
	// An overpacked baseline schedule needs several batches to reach a
	// tight CI.
	pr := denseProblem(t, 200, 4)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	quiet, err := SimulateAdaptive(pr, s, AdaptiveConfig{TargetCI: 1, BatchSlots: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := SimulateAdaptive(pr, s, AdaptiveConfig{TargetCI: 0.05, BatchSlots: 100, Seed: 5, MaxSlots: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Slots <= quiet.Slots {
		t.Errorf("tighter target used %d slots vs %d", tight.Slots, quiet.Slots)
	}
	if tight.Failures.CI95() > 0.05 {
		t.Errorf("tight run CI %v above target", tight.Failures.CI95())
	}
}

func TestAdaptiveRespectsMaxSlots(t *testing.T) {
	pr := denseProblem(t, 150, 6)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	res, err := SimulateAdaptive(pr, s, AdaptiveConfig{TargetCI: 1e-9, BatchSlots: 50, MaxSlots: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 200 {
		t.Errorf("cap ignored: %d slots", res.Slots)
	}
}

func TestAdaptiveMatchesOneLongRun(t *testing.T) {
	// The batched sequence must reproduce a single Simulate call of the
	// same total length: same mean, same per-link counts.
	pr := denseProblem(t, 80, 8)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	adaptive, err := SimulateAdaptive(pr, s, AdaptiveConfig{TargetCI: 1e-12, BatchSlots: 60, MaxSlots: 240, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Simulate(pr, s, Config{Slots: 240, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Slots != 240 {
		t.Fatalf("adaptive consumed %d slots", adaptive.Slots)
	}
	if math.Abs(adaptive.Failures.Mean()-long.Failures.Mean()) > 1e-12 {
		t.Errorf("means differ: %v vs %v", adaptive.Failures.Mean(), long.Failures.Mean())
	}
	for k := range long.PerLinkFailures {
		if adaptive.PerLinkFailures[k] != long.PerLinkFailures[k] {
			t.Fatalf("per-link counts differ at %d", k)
		}
	}
}

func TestAdaptiveBlockFadingAlignment(t *testing.T) {
	// With coherence 7 and batch 50, batches are padded to 56 so block
	// boundaries stay aligned; the result must match one long run of
	// the same length.
	pr := denseProblem(t, 60, 10)
	s := sched.Run(sched.ApproxDiversity{}, pr)
	adaptive, err := SimulateAdaptive(pr, s, AdaptiveConfig{
		TargetCI: 1e-12, BatchSlots: 50, MaxSlots: 112, Seed: 11, CoherenceSlots: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Simulate(pr, s, Config{Slots: 112, Seed: 11, CoherenceSlots: 7})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Slots != 112 {
		t.Fatalf("adaptive consumed %d slots, want 112", adaptive.Slots)
	}
	// Means agree to merge-order rounding; the integer per-link counts
	// are the exact equality check.
	if math.Abs(adaptive.Failures.Mean()-long.Failures.Mean()) > 1e-12 {
		t.Errorf("block-fading means differ: %v vs %v", adaptive.Failures.Mean(), long.Failures.Mean())
	}
	for k := range long.PerLinkFailures {
		if adaptive.PerLinkFailures[k] != long.PerLinkFailures[k] {
			t.Fatalf("block-fading per-link counts differ at %d", k)
		}
	}
}
