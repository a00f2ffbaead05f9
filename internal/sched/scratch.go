package sched

import (
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// Scratch is the reusable per-solve workspace behind Prepared's
// steady-state zero-allocation hot path. Every buffer an algorithm's
// inner loop needs — pick orderings, alive/usable masks, the active
// set, feasibility accumulators, DLS round state — lives here and is
// resized (never reallocated once warm) at the start of each solve.
//
// A Scratch belongs to exactly one solve at a time; Prepared hands
// them out from a sync.Pool so concurrent solves on the same handle
// never share one. The zero value is valid: every getter allocates on
// first use, which is how the non-prepared entry points (Run,
// ScheduleContext) run — they pass a fresh Scratch and pay the
// allocation profile at most once.
type Scratch struct {
	// pp points at the owning Prepared's shared immutable caches
	// (sender index, median length); nil for standalone scratches,
	// which recompute per call exactly as the pre-Prepared code did.
	pp *Prepared

	pickKeys []pickKey
	order    []int
	active   []int
	alive    []bool
	usable   []bool
	lens     []float64
	senders  []geom.Point
	recvs    []geom.Point
	acc      Accum
	acc2     Accum
	det      detAccum

	// Tile-sharded solver state (shard.go): the partition/merge
	// workspace, lazily allocated, the tile-local accumulator a
	// worker-checked-out Scratch solves its tiles through, and the
	// pruned insertion loop's active-membership marks.
	shard  *shardBufs
	tacc   tileAccum
	insAct []bool

	// DLS round state.
	state     []dlsState
	retry     []int
	prio      []float64
	undecided []int
	winners   []int
	members   []int
	inWin     []bool
}

// intsIn returns *buf resized to n (contents unspecified), growing the
// backing array only when capacity is short.
func intsIn(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// floatsIn is intsIn for float64 buffers.
func floatsIn(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// intsLikeStates returns *buf resized to n with every element
// dlsUndecided (the zero state).
func intsLikeStates(buf *[]dlsState, n int) []dlsState {
	if cap(*buf) < n {
		*buf = make([]dlsState, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// boolsIn returns *buf resized to n with every element false.
func boolsIn(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// pickKey is one pick-order sort entry: link idx under its primary
// and secondary keys.
type pickKey struct {
	k1, k2 float64
	idx    int
}

// comparePickKeys orders by k1 ascending, ties by k2 ascending, then
// by idx ascending. Indices are distinct, so this is a total order on
// any key buffer and every correct sort yields the one permutation
// sort.Stable on (k1, k2) would — without an interface call per
// comparison and swap.
func comparePickKeys(a, b pickKey) int {
	switch {
	case a.k1 < b.k1:
		return -1
	case b.k1 < a.k1:
		return 1
	case a.k2 < b.k2:
		return -1
	case b.k2 < a.k2:
		return 1
	}
	return a.idx - b.idx
}

// pickKeysBuf returns the empty scratch key buffer with capacity ≥ n;
// callers append the candidates' keys and hand the buffer to
// sortPicks.
func (s *Scratch) pickKeysBuf(n int) []pickKey {
	if cap(s.pickKeys) < n {
		s.pickKeys = make([]pickKey, 0, n)
	}
	return s.pickKeys[:0]
}

// sortPicks sorts keys (comparePickKeys) and returns their indices in
// that order, in a scratch-owned buffer.
func (s *Scratch) sortPicks(keys []pickKey) []int {
	slices.SortFunc(keys, comparePickKeys)
	order := intsIn(&s.order, len(keys))
	for m, k := range keys {
		order[m] = k.idx
	}
	return order
}

// activeBuf returns the empty active-set buffer with capacity ≥ n, so
// the pick loops' appends never reallocate.
func (s *Scratch) activeBuf(n int) []int {
	if cap(s.active) < n {
		s.active = make([]int, 0, n)
	}
	return s.active[:0]
}

// zeroAccum returns the scratch interference accumulator reset over
// pr's field with zero base load (the NewInterferenceAccum form).
func (s *Scratch) zeroAccum(pr *Problem) *Accum {
	a := &s.acc
	a.reset(pr.field)
	a.setBudget(pr)
	return a
}

// noiseAccum is zeroAccum preloaded with each receiver's noise term
// (the NewAccum form).
func (s *Scratch) noiseAccum(pr *Problem) *Accum {
	a := s.zeroAccum(pr)
	for j := range a.load {
		a.load[j] = pr.field.NoiseTerm(j)
	}
	return a
}

// detAccumFor returns the scratch deterministic-gain accumulator reset
// for pr (the ApproxDiversity elimination model).
func (s *Scratch) detAccumFor(pr *Problem) *detAccum {
	d := &s.det
	d.pr = pr
	d.load = floatsIn(&d.load, pr.N())
	clear(d.load)
	return d
}

// sendersOf returns the sender positions of pr's links, from the
// shared Prepared cache when available.
func (s *Scratch) sendersOf(pr *Problem) []geom.Point {
	if s.pp != nil {
		return s.pp.shared.sendersFor(pr)
	}
	n := pr.N()
	s.senders = s.senders[:0]
	if cap(s.senders) < n {
		s.senders = make([]geom.Point, 0, n)
	}
	for i := 0; i < n; i++ {
		s.senders = append(s.senders, pr.Links.Link(i).Sender)
	}
	return s.senders
}

// receiversOf returns the receiver positions of pr's links, from the
// shared Prepared cache when available.
func (s *Scratch) receiversOf(pr *Problem) []geom.Point {
	if s.pp != nil {
		return s.pp.shared.receiversFor(pr)
	}
	n := pr.N()
	s.recvs = s.recvs[:0]
	if cap(s.recvs) < n {
		s.recvs = make([]geom.Point, 0, n)
	}
	for i := 0; i < n; i++ {
		s.recvs = append(s.recvs, pr.Links.Link(i).Receiver)
	}
	return s.recvs
}

// rule1Index returns a spatial index over senders with the given cell
// side, cached per side on the Prepared when available (the index is
// immutable and safely shared across concurrent solves).
func (s *Scratch) rule1Index(pr *Problem, senders []geom.Point, side float64) *geom.Index {
	if s.pp != nil {
		return s.pp.shared.senderIndex(pr, side)
	}
	return geom.NewIndex(senders, side)
}

// medianLength returns the median link length, cached per geometry
// generation on the Prepared when available.
func (s *Scratch) medianLength(pr *Problem) float64 {
	if s.pp != nil {
		return s.pp.shared.medianLength(pr)
	}
	n := pr.N()
	lens := floatsIn(&s.lens, n)
	for i := 0; i < n; i++ {
		lens[i] = pr.Links.Length(i)
	}
	return mathx.MedianInPlace(lens)
}

// finishSchedule copies the raw active set into dst[:0] sorted
// ascending — the normalized Schedule form — leaving the scratch-owned
// source free for reuse. With dst nil a fresh result slice is
// allocated, which is the legacy-API behavior.
func finishSchedule(name string, active, dst []int) Schedule {
	dst = append(dst[:0], active...)
	sort.Ints(dst)
	return Schedule{Active: dst, Algorithm: name}
}
