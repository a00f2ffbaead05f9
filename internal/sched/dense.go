package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
)

// denseParallelThreshold is the instance size below which the dense
// factor matrix is filled serially: goroutine startup costs more than
// the O(n²) work it would split.
const denseParallelThreshold = 192

// DenseField is the exact interference backend: the full row-major
// n×n factor matrix, the original Problem representation. Construction
// is row-sharded across GOMAXPROCS workers — each sender row is an
// independent slice of the matrix, so workers share nothing and the
// result is bit-identical at any worker count.
//
// Rows are filled by radio.FieldKernel.FactorRow over flat SoA
// coordinate arrays hoisted from the LinkSet once per build: the
// per-receiver constant K_j = γ_th·d_jj^α/p_j is precomputed, the
// inner loop sees squared distances only (no sqrt per pair), and the
// α-specialized pow family replaces math.Pow (α = 3 runs on one
// multiply and one sqrt per pair). The same SoA arrays back the
// incremental rebind patches, which go through the identical kernel
// and therefore reproduce fill bits exactly.
type DenseField struct {
	ls     *network.LinkSet
	params radio.Params
	kern   radio.FieldKernel
	// factor[i*n+j] = f_{i,j} (0 on the diagonal, per Eq. 17),
	// computed with each link's effective transmit power.
	factor []float64
	noise  []float64
	power  []float64
	// Flat kernel inputs: sender and receiver coordinates, and the
	// hoisted per-receiver constant K.
	sx, sy []float64
	rx, ry []float64
	kc     []float64
	n      int
}

func newDenseField(ctx context.Context, ls *network.LinkSet, p radio.Params) *DenseField {
	return newDenseFieldWorkers(ctx, ls, p, runtime.GOMAXPROCS(0))
}

// newDenseFieldWorkers exposes the worker count so tests can prove the
// parallel fill is bit-identical to the serial one. When ctx carries a
// trace span, each worker's row chunk is recorded as a "dense_fill"
// child — concurrent siblings in the trace, so a straggling shard is
// visible.
func newDenseFieldWorkers(ctx context.Context, ls *network.LinkSet, p radio.Params, workers int) *DenseField {
	n := ls.Len()
	f := &DenseField{
		ls: ls, params: p, kern: p.FieldKernel(), n: n,
		factor: make([]float64, n*n),
		noise:  make([]float64, n),
		power:  make([]float64, n),
		sx:     make([]float64, n),
		sy:     make([]float64, n),
		rx:     make([]float64, n),
		ry:     make([]float64, n),
		kc:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.power[i] = p.EffectivePower(ls.Power(i))
		f.bindGeometry(ls, i)
	}
	if workers < 1 || n < denseParallelThreshold {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	parent := obs.SpanFrom(ctx)
	if workers <= 1 {
		sp := parent.Child("dense_fill")
		sp.SetInt("rows", int64(n))
		f.fillRows(0, n)
		sp.End()
		return f
	}

	// Parallel fill over unordered band pairs: rows are cut into bands
	// and each task {a, b} fills the two mirrored blocks
	// (rows a × cols b) ∪ (rows b × cols a) through the pair-fused
	// kernel — two factor chains per iteration instead of one, the
	// measured win behind FactorPairSpan. Distinct unordered pairs own
	// disjoint matrix elements, so workers pulling tasks from an atomic
	// cursor share nothing, and the fused expressions are bit-identical
	// to FactorRow's, so the result matches the serial fill exactly at
	// any worker count.
	bands := 2 * workers
	if bands > n {
		bands = n
	}
	width := (n + bands - 1) / bands
	type blockTask struct{ a, b int32 }
	tasks := make([]blockTask, 0, bands*(bands+1)/2)
	for a := 0; a < bands; a++ {
		for b := a; b < bands; b++ {
			tasks = append(tasks, blockTask{int32(a), int32(b)})
		}
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := parent.Child("dense_fill")
			blocks := 0
			for {
				t := int(cursor.Add(1)) - 1
				if t >= len(tasks) {
					break
				}
				f.fillBlockPair(int(tasks[t].a)*width, int(tasks[t].b)*width, width)
				blocks++
			}
			sp.SetInt("blocks", int64(blocks))
			sp.End()
		}()
	}
	wg.Wait()
	return f
}

// fillBlockPair fills both directions of every pair (i, j) with
// i ∈ [alo, alo+width), j ∈ [blo, blo+width), j > i — the two mirrored
// blocks an unordered band pair owns. For the diagonal block
// (alo == blo) the span starts past i, which also keeps the zeroed
// diagonal untouched.
func (f *DenseField) fillBlockPair(alo, blo, width int) {
	ahi := min(alo+width, f.n)
	bhi := min(blo+width, f.n)
	for i := alo; i < ahi; i++ {
		lo := blo
		if lo <= i {
			lo = i + 1
		}
		if lo >= bhi {
			continue
		}
		f.kern.FactorPairSpan(f.power[i], f.sx[i], f.sy[i], f.rx[i], f.ry[i], f.kc[i],
			f.power[lo:bhi], f.sx[lo:bhi], f.sy[lo:bhi], f.rx[lo:bhi], f.ry[lo:bhi], f.kc[lo:bhi],
			f.factor[i*f.n+lo:i*f.n+bhi], f.factor[lo*f.n+i:], f.n)
	}
}

// bindGeometry refreshes link i's kernel inputs (coordinates, noise
// term, receiver constant) from ls. Power must already be current.
func (f *DenseField) bindGeometry(ls *network.LinkSet, i int) {
	l := ls.Link(i)
	f.sx[i], f.sy[i] = l.Sender.X, l.Sender.Y
	f.rx[i], f.ry[i] = l.Receiver.X, l.Receiver.Y
	f.noise[i] = f.params.NoiseFactorP(f.power[i], ls.Length(i))
	f.kc[i] = f.kern.ReceiverConst(f.power[i], ls.Length(i))
}

// fillRows computes the factor rows of senders [lo, hi).
func (f *DenseField) fillRows(lo, hi int) {
	for i := lo; i < hi; i++ {
		f.kern.FactorRow(f.power[i], f.sx[i], f.sy[i], f.rx, f.ry, f.kc, i, f.factor[i*f.n:(i+1)*f.n])
	}
}

// N implements InterferenceField.
func (f *DenseField) N() int { return f.n }

// Factor implements InterferenceField.
func (f *DenseField) Factor(i, j int) float64 { return f.factor[i*f.n+j] }

// NoiseTerm implements InterferenceField.
func (f *DenseField) NoiseTerm(j int) float64 { return f.noise[j] }

// PowerOf implements InterferenceField.
func (f *DenseField) PowerOf(i int) float64 { return f.power[i] }

// TailBound implements InterferenceField: the dense backend truncates
// nothing.
func (f *DenseField) TailBound(int) float64 { return 0 }

// ForEachSignificant implements InterferenceField (a column scan).
func (f *DenseField) ForEachSignificant(j int, fn func(i int, fij float64)) {
	for i := 0; i < f.n; i++ {
		if v := f.factor[i*f.n+j]; v > 0 {
			fn(i, v)
		}
	}
}

// ForEachAffected implements InterferenceField (a row scan).
func (f *DenseField) ForEachAffected(i int, fn func(j int, fij float64)) {
	row := f.factor[i*f.n : (i+1)*f.n]
	for j, v := range row {
		if v > 0 {
			fn(j, v)
		}
	}
}

// row returns sender i's factor row; the accumulator's dense fast path
// walks it directly instead of paying a closure call per entry.
func (f *DenseField) row(i int) []float64 { return f.factor[i*f.n : (i+1)*f.n] }

// rebind implements the incremental-update hook used by
// Problem.Rebind: the moved links' rows and columns are recomputed in
// place against the new geometry, O(|moved|·n) instead of an O(n²)
// rebuild. All links keep their identities (count, rates, powers);
// only positions may differ.
//
// The row refill runs the same FactorRow the build uses, and the
// column patch runs the scalar Factor on the same squared-distance
// expression — the kernel consistency contract makes both
// bit-identical to a from-scratch build of the new geometry.
func (f *DenseField) rebind(ls *network.LinkSet, moved []int) {
	f.ls = ls
	for _, i := range moved {
		f.power[i] = f.params.EffectivePower(ls.Power(i))
		f.bindGeometry(ls, i)
	}
	for _, i := range moved {
		f.kern.FactorRow(f.power[i], f.sx[i], f.sy[i], f.rx, f.ry, f.kc, i, f.factor[i*f.n:(i+1)*f.n])
		for q := 0; q < f.n; q++ {
			if q == i {
				continue
			}
			dx := f.rx[i] - f.sx[q]
			dy := f.ry[i] - f.sy[q]
			f.factor[q*f.n+i] = f.kern.Factor(f.power[q]*f.kc[i], dx*dx+dy*dy)
		}
	}
}

// spliced returns a new dense field over ls, which is f's link set
// with link removed deleted (removed ≥ 0) or with one link appended
// (removed < 0). A factor depends only on its own pair's geometry and
// power, so every kept pair is copied from f as row runs; only an
// appended link's row and column are computed, through rebind, which
// is already bit-identical to a full fill. The result shares no
// storage with f.
func (f *DenseField) spliced(ls *network.LinkSet, removed int) *DenseField {
	n := ls.Len()
	vec := func(v []float64) []float64 {
		out := make([]float64, n)
		spliceCopy(out, v, removed)
		return out
	}
	g := &DenseField{
		ls: ls, params: f.params, kern: f.kern, n: n,
		factor: make([]float64, n*n),
		noise:  vec(f.noise),
		power:  vec(f.power),
		sx:     vec(f.sx),
		sy:     vec(f.sy),
		rx:     vec(f.rx),
		ry:     vec(f.ry),
		kc:     vec(f.kc),
	}
	kept := min(n, f.n)
	for k := 0; k < kept; k++ {
		o := k
		if removed >= 0 && k >= removed {
			o++
		}
		spliceCopy(g.factor[k*n:(k+1)*n], f.row(o), removed)
	}
	if removed < 0 {
		g.rebind(ls, []int{n - 1})
	}
	return g
}

// spliceCopy copies src into dst skipping index removed (removed < 0
// copies all of src).
func spliceCopy(dst, src []float64, removed int) {
	if removed < 0 {
		copy(dst, src)
		return
	}
	copy(dst, src[:removed])
	copy(dst[removed:], src[removed+1:])
}
