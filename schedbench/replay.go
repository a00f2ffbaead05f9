package main

import (
	"context"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

// replayCtx is one replay pass: its tracer (on or off) and the per-op
// counts the per-layer metrics need, recorded only when tracing.
type replayCtx struct {
	tr      *tracer
	samples map[string][]float64
}

func newReplayCtx(on bool) *replayCtx {
	return &replayCtx{tr: newTracer(on), samples: map[string][]float64{}}
}

func (r *replayCtx) sample(name string, v float64) {
	if r.tr.on {
		r.samples[name] = append(r.samples[name], v)
	}
}

// replayState models the server's two caches with their default
// capacities, so the replay builds a field and solves only where the
// server would have.
type replayState struct {
	prep *lru[int, *sched.Prepared]
	res  *lru[string, struct{}]
}

func newReplayState() *replayState {
	return &replayState{prep: newLRU[int, *sched.Prepared](16), res: newLRU[string, struct{}](256)}
}

// result reports whether a solve for k misses the modelled result cache
// (and records it as cached).
func (st *replayState) result(k string) bool {
	if _, ok := st.res.get(k); ok {
		return false
	}
	st.res.put(k, struct{}{})
	return true
}

// prepared returns the cached field for inst or builds it under a
// sched.dense_build / sched.sparse_build span.
func (st *replayState) prepared(r *replayCtx, op, root int32, inst int, ls *network.LinkSet,
	p radio.Params, field string, cutoff float64) (*sched.Prepared, error) {
	if prep, ok := st.prep.get(inst); ok {
		return prep, nil
	}
	if field == "" {
		field = "dense"
	}
	opt, err := sched.FieldOption(field, cutoff)
	if err != nil {
		return nil, err
	}
	sp := r.tr.begin(op, root, "sched."+field+"_build")
	prep, err := sched.PrepareContext(context.Background(), ls, p, opt)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.sample("field_pairs", fieldPairs(prep.Problem()))
	st.prep.put(inst, prep)
	return prep, nil
}

// fieldPairs is the stored factor count, computed from sizes: n(n−1)
// for the dense matrix, the stored near-field pairs for sparse.
func fieldPairs(pr *sched.Problem) float64 {
	if sf, ok := pr.Field().(*sched.SparseField); ok {
		return float64(sf.StoredPairs())
	}
	n := float64(pr.N())
	return n * (n - 1)
}

// lru is a small least-recently-used map; capacities here are at most
// a few hundred, so linear scans are fine.
type lru[K comparable, V any] struct {
	cap  int
	keys []K // least recent first
	vals []V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] { return &lru[K, V]{cap: capacity} }

func (c *lru[K, V]) get(k K) (V, bool) {
	for i, key := range c.keys {
		if key == k {
			v := c.vals[i]
			c.keys = append(append(c.keys[:i:i], c.keys[i+1:]...), k)
			c.vals = append(append(c.vals[:i:i], c.vals[i+1:]...), v)
			return v, true
		}
	}
	var zero V
	return zero, false
}

func (c *lru[K, V]) put(k K, v V) {
	if _, ok := c.get(k); ok {
		c.vals[len(c.vals)-1] = v
		return
	}
	c.keys = append(c.keys, k)
	c.vals = append(c.vals, v)
	if len(c.keys) > c.cap {
		c.keys, c.vals = c.keys[1:], c.vals[1:]
	}
}
