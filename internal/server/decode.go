package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/network"
	"repro/internal/obs"
)

// The request language of every JSON body endpoint is exactly
// encoding/json's strict decode (network.DecodeStrict: unknown fields
// rejected, nothing after the value). decodeRequest reaches the same
// result faster on the bodies clients actually send: it reads the body
// once into a pooled buffer and runs the type's readCanonical field
// switch over it with a network.Canon, which accepts only the
// canonical subset json.Marshal emits and hands everything else to
// DecodeStrict unchanged.

// wireRequest is a request body type decodeRequest can fill.
type wireRequest[T any] interface {
	*T
	// readCanonical is the type's field switch for network.Canon: one
	// case per JSON key, Reject on any other.
	readCanonical(c *network.Canon)
	// linkCount is the decoded instance size (the decode span's links).
	linkCount() int
}

// decodeState is one request's pooled decode memory: the body buffer
// and the Canon with its link scratch.
type decodeState struct {
	body  []byte
	canon network.Canon
}

// maxPooledBody caps what a decodeState keeps for reuse, so one huge
// request does not pin its buffers in the pool.
const maxPooledBody = 1 << 20

var decodePool = sync.Pool{New: func() any { return new(decodeState) }}

// decodeRequest reads r's body under MaxBodyBytes and decodes it into
// v under a "decode" span. On failure it writes the error response —
// 413 when the body is over the limit, else 400 with the decoder's
// message — and reports false.
func decodeRequest[T any, P wireRequest[T]](s *Server, w http.ResponseWriter, r *http.Request, v P) bool {
	sp := obs.SpanFrom(r.Context()).Child("decode")
	st := decodePool.Get().(*decodeState)
	body, readErr := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes, st.body[:0])
	err := network.Decode(body, readErr, &st.canon, (*T)(v), func(v *T, c *network.Canon) { P(v).readCanonical(c) })
	if sp.Enabled() {
		sp.SetInt("bytes", int64(len(body)))
		if err == nil {
			sp.SetInt("links", int64(v.linkCount()))
		}
	}
	sp.End()
	if cap(body) <= maxPooledBody {
		st.body = body[:0]
		decodePool.Put(st)
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	case errors.Is(err, network.ErrTrailingData):
		writeError(w, http.StatusBadRequest, "trailing data after request")
	default:
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
	}
	return false
}

// readBody reads r to its end into buf, sized up front from the
// request's Content-Length when that is known and within limit. The
// error is the one that ended the read, nil at a clean end of input.
// The up-front size is capped at maxPooledBody: a declared length
// buys no memory before its bytes arrive.
func readBody(r io.Reader, size, limit int64, buf []byte) ([]byte, error) {
	if size >= 0 && size < limit && int64(cap(buf)) <= size {
		buf = make([]byte, 0, min(size+1, maxPooledBody))
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (q *SolveRequest) readCanonical(c *network.Canon) {
	for m := c.Object(); m.Next(); {
		switch string(m.Key()) {
		case "algorithm":
			q.Algorithm = c.Str()
		case "links":
			q.Links = c.Links()
		case "alpha":
			q.Alpha = c.Float()
		case "gamma_th":
			q.GammaTh = c.Float()
		case "eps":
			q.Eps = c.Float()
		case "power":
			q.Power = c.Float()
		case "n0":
			q.N0 = c.Float()
		case "field":
			q.Field = c.Str()
		case "cutoff":
			q.Cutoff = c.Float()
		case "timeout_ms":
			q.TimeoutMS = c.Int64()
		case "mc_slots":
			q.MCSlots = c.Int()
		case "mc_seed":
			q.MCSeed = c.Uint64()
		case "shards":
			q.Shards = c.Int()
		default:
			c.Reject()
		}
	}
}

func (q *SolveRequest) linkCount() int { return len(q.Links) }

func (q *BatchRequest) readCanonical(c *network.Canon) {
	for m := c.Object(); m.Next(); {
		switch string(m.Key()) {
		case "links":
			q.Links = c.Links()
		case "alpha":
			q.Alpha = c.Float()
		case "gamma_th":
			q.GammaTh = c.Float()
		case "eps":
			q.Eps = c.Float()
		case "power":
			q.Power = c.Float()
		case "n0":
			q.N0 = c.Float()
		case "field":
			q.Field = c.Str()
		case "cutoff":
			q.Cutoff = c.Float()
		case "timeout_ms":
			q.TimeoutMS = c.Int64()
		case "configs":
			q.Configs = []BatchConfig{}
			for a := c.Array(); a.Next(); {
				q.Configs = append(q.Configs, BatchConfig{})
				q.Configs[len(q.Configs)-1].readCanonical(c)
			}
		default:
			c.Reject()
		}
	}
}

func (q *BatchRequest) linkCount() int { return len(q.Links) }

func (q *BatchConfig) readCanonical(c *network.Canon) {
	for m := c.Object(); m.Next(); {
		switch string(m.Key()) {
		case "algorithm":
			q.Algorithm = c.Str()
		case "eps":
			q.Eps = c.Float()
		case "mc_slots":
			q.MCSlots = c.Int()
		case "mc_seed":
			q.MCSeed = c.Uint64()
		case "shards":
			q.Shards = c.Int()
		default:
			c.Reject()
		}
	}
}

func (q *TrafficRequest) readCanonical(c *network.Canon) {
	for m := c.Object(); m.Next(); {
		switch string(m.Key()) {
		case "links":
			q.Links = c.Links()
		case "alpha":
			q.Alpha = c.Float()
		case "gamma_th":
			q.GammaTh = c.Float()
		case "eps":
			q.Eps = c.Float()
		case "power":
			q.Power = c.Float()
		case "n0":
			q.N0 = c.Float()
		case "field":
			q.Field = c.Str()
		case "cutoff":
			q.Cutoff = c.Float()
		case "slots":
			q.Slots = c.Int()
		case "policy":
			q.Policy = c.Str()
		case "arrivals":
			q.Arrivals = c.Str()
		case "rate":
			q.Rate = c.Float()
		case "queue_cap":
			q.QueueCap = c.Int()
		case "seed":
			q.Seed = c.Uint64()
		case "no_fading":
			q.NoFading = c.Bool()
		case "timeout_ms":
			q.TimeoutMS = c.Int64()
		default:
			c.Reject()
		}
	}
}

func (q *TrafficRequest) linkCount() int { return len(q.Links) }

func (q *SessionRequest) readCanonical(c *network.Canon) {
	for m := c.Object(); m.Next(); {
		switch string(m.Key()) {
		case "algorithm":
			q.Algorithm = c.Str()
		case "links":
			q.Links = c.Links()
		case "alpha":
			q.Alpha = c.Float()
		case "gamma_th":
			q.GammaTh = c.Float()
		case "eps":
			q.Eps = c.Float()
		case "power":
			q.Power = c.Float()
		case "n0":
			q.N0 = c.Float()
		case "field":
			q.Field = c.Str()
		case "cutoff":
			q.Cutoff = c.Float()
		default:
			c.Reject()
		}
	}
}

func (q *SessionRequest) linkCount() int { return len(q.Links) }
