package sched

import (
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
)

// spreadTailField scales each receiver's tail bound by a factor in
// [1/2, 1]. Scaling down keeps the structural property prunedInsert's
// proof rests on (a stored factor dominates the tail charge it
// displaces), but pulls the tail range [tmin, tmax] apart, which widens
// the margin band far past its natural ~10⁻⁹ of the budget so the
// exact-scan fallback actually runs.
type spreadTailField struct {
	*SparseField
	scale []float64
}

func (f *spreadTailField) TailBound(j int) float64 { return f.scale[j] * f.SparseField.TailBound(j) }

// TestPrunedInsertMatchesScan is the insertion-loop oracle: on
// tail-bounded (sparse) fields prunedInsert must admit exactly the set
// the plain scan (scanInsert, greedyInsert's dense path) admits from
// the same pick order. Deployments run uniform and clustered, at sizes
// and cutoffs from an unsaturated far field to one where the tail
// charge saturates the active receivers, on the natural sparse field
// and on a spread-tail variant that drives candidates into the
// margin-band fallback.
func TestPrunedInsertMatchesScan(t *testing.T) {
	sizes := []int{300, 1500, 4000}
	if testing.Short() {
		sizes = []int{300, 1500}
	}
	p := radio.DefaultParams()
	p.Alpha = 4.5
	bandScans := 0
	for _, n := range sizes {
		region := 20000 * math.Sqrt(float64(n)/20000)
		uniform := network.PaperConfig(n)
		uniform.Region = region
		clustered := uniform
		clustered.Clusters = 6
		clustered.ClusterSpread = region / 12
		for name, cfg := range map[string]network.GenConfig{"uniform": uniform, "clustered": clustered} {
			ls, err := network.Generate(cfg, 42, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, cutoff := range []float64{1e-7, 1e-5} {
				pr := MustNewProblem(ls, p, WithSparseField(SparseOptions{Cutoff: cutoff}))
				sp := pr.field.(*SparseField)
				scale := make([]float64, n)
				for j := range scale {
					scale[j] = 0.5 + 0.5*float64((j*7919)%101)/100
				}
				for _, field := range []InterferenceField{sp, &spreadTailField{sp, scale}} {
					pr.field = field
					_, spread := field.(*spreadTailField)
					scr := new(Scratch)
					order := append([]int(nil), pickOrder(pr, scr, Selection{})...)

					want, wantRej := scanInsert(pr, scr.noiseAccum(pr), nil, order)
					got, gotRej, band := prunedInsert(pr, scr, scr.noiseAccum(pr), nil, order)
					bandScans += band

					if len(got) != len(want) || gotRej != wantRej {
						t.Fatalf("%s n=%d cutoff=%g spread=%v: pruned admitted %d (rejected %d), scan %d (rejected %d)",
							name, n, cutoff, spread, len(got), gotRej, len(want), wantRej)
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("%s n=%d cutoff=%g spread=%v: admission %d is link %d, scan admitted %d",
								name, n, cutoff, spread, k, got[k], want[k])
						}
					}
					t.Logf("%s n=%d cutoff=%g spread=%v: %d admitted, %d band scans", name, n, cutoff, spread, len(got), band)
				}
			}
		}
	}
	if bandScans == 0 {
		t.Error("no candidate reached the margin-band fallback: the oracle never exercised it")
	}
}
