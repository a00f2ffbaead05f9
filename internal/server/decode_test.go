package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
)

// sameBits reports whether a and b are deeply equal with floats
// compared by bit pattern (-0 ≠ 0) and nil slices distinct from empty
// ones.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// checkDecode decodes body into T through the server's decoder and
// through the plain strict encoding/json decode, failing unless both
// agree on accept/reject, on the error text and, when they accept, on
// every bit of the value. It reports whether the canonical fast path
// took the body.
func checkDecode[T any, P wireRequest[T]](t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var c network.Canon
	var probe T
	c.Reset(body)
	P(&probe).readCanonical(&c)
	fast = c.Done()

	var got, want T
	gotErr := network.Decode(body, nil, &c, &got, func(v *T, c *network.Canon) { P(v).readCanonical(c) })
	wantErr := network.DecodeStrict(body, nil, &want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("decoder err %v, encoding/json err %v (fast path %v) on %q", gotErr, wantErr, fast, body)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("decoder err %q, encoding/json err %q on %q", gotErr, wantErr, body)
	case gotErr == nil && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)):
		t.Fatalf("decoded values differ (fast path %v) on %q:\n got %+v\nwant %+v", fast, body, got, want)
	}
	return fast
}

// decodeTestLinks is a small instance with fractional coordinates and
// one per-link power override, so every link field is on the wire.
func decodeTestLinks(t testing.TB) []network.Link {
	links := paperLinks(t, 3, 11)
	links[1].Power = 2.5
	return links
}

// decodeBases returns one canonical body per request type with every
// field set, so omitempty drops nothing.
func decodeBases(t testing.TB) map[string][]byte {
	links := decodeTestLinks(t)
	reqs := map[string]any{
		"solve": SolveRequest{Algorithm: "rle", Links: links, Alpha: 4, GammaTh: 1.5, Eps: 0.02,
			Power: 2, N0: 1e-9, Field: "sparse", Cutoff: 1e-7, TimeoutMS: 500, MCSlots: 10, MCSeed: 7, Shards: 2},
		"batch": BatchRequest{Links: links, Alpha: 4, GammaTh: 1.5, Eps: 0.02, Power: 2, N0: 1e-9,
			Field: "dense", Cutoff: 1e-7, TimeoutMS: 500, Configs: []BatchConfig{
				{Algorithm: "rle", Eps: 0.03, MCSlots: 3, MCSeed: 9, Shards: 1}, {Algorithm: "greedy"}}},
		"traffic": TrafficRequest{Links: links, Alpha: 4, GammaTh: 1.5, Eps: 0.02, Power: 2, N0: 1e-9,
			Field: "dense", Cutoff: 1e-7, Slots: 200, Policy: "maxweight", Arrivals: "poisson", Rate: 0.25,
			QueueCap: 64, Seed: 5, NoFading: true, TimeoutMS: 800},
		"session": SessionRequest{Algorithm: "greedy", Links: links, Alpha: 4, GammaTh: 1.5, Eps: 0.02,
			Power: 2, N0: 1e-9, Field: "dense", Cutoff: 1e-7},
	}
	out := make(map[string][]byte, len(reqs))
	for name, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// nullVariants returns base with each value in turn replaced by null.
// base must be compact canonical JSON (no whitespace, no escapes, no
// brackets or commas inside strings).
func nullVariants(base []byte) [][]byte {
	var out [][]byte
	var stack []byte // open containers
	inStr := false
	for i := 0; i < len(base); i++ {
		ch := base[i]
		if inStr {
			inStr = ch != '"'
			continue
		}
		switch ch {
		case '"':
			inStr = true
			continue
		case '{', '[':
			stack = append(stack, ch)
		case '}', ']':
			stack = stack[:len(stack)-1]
			continue
		}
		// A value starts after ':' , after '[' and after ',' in an array.
		atValue := ch == ':' || (len(stack) > 0 && stack[len(stack)-1] == '[' && (ch == '[' || ch == ','))
		if !atValue || i+1 >= len(base) || base[i+1] == ']' {
			continue
		}
		start, end := i+1, i+1
		if open := base[start]; open == '{' || open == '[' {
			depth := 0
			for ; end < len(base); end++ {
				if base[end] == '{' || base[end] == '[' {
					depth++
				} else if base[end] == '}' || base[end] == ']' {
					if depth--; depth == 0 {
						end++
						break
					}
				}
			}
		} else {
			for end < len(base) && !strings.ContainsRune(",}]", rune(base[end])) {
				end++
			}
		}
		v := append(append(append([]byte(nil), base[:start]...), "null"...), base[end:]...)
		out = append(out, v)
	}
	return out
}

// decodeSeeds is the seed corpus for the decode oracle, built around
// one canonical body: case-folded keys, duplicate keys (scalar, nested
// object, links), null in every position, escapes and invalid UTF-8,
// number edge cases, a BOM, trailing data and whitespace everywhere.
func decodeSeeds(base []byte) [][]byte {
	b := string(base)
	seeds := [][]byte{base}
	add := func(s string) { seeds = append(seeds, []byte(s)) }
	// replace applies one substitution (first occurrence) when base
	// has the substring, so one list serves every request type.
	replace := func(old, new string) {
		if strings.Contains(b, old) {
			add(strings.Replace(b, old, new, 1))
		}
	}
	// Case-folded keys, which encoding/json matches to fields.
	replace(`"X":`, `"x":`)
	replace(`"sender":`, `"SENDER":`)
	replace(`"sender":`, `"ſender":`)
	replace(`"links":`, `"lin`+"\u212a"+`s":`) // Kelvin sign folds to k
	replace(`"algorithm":`, `"Algorithm":`)
	replace(`"mc_seed":`, `"MC_SEED":`)
	replace(`"rate":`, `"Rate":`)
	// Duplicates: scalar, nested object (encoding/json merges), links
	// (the second array decodes into the first's elements).
	replace(`{"X":`, `{"X":7,"X":`)
	add(`{"eps":0.5,` + b[1:])
	replace(`"sender":{`, `"sender":{"X":5},"sender":{`)
	replace(`"links":[`, `"links":[],"links":[`)
	replace(`"links":[`, `"links":[{"sender":{"X":1,"Y":1},"rate":2,"power":3}],"links":[`)
	replace(`"configs":[`, `"configs":[{"algorithm":"ldp","mc_slots":4}],"configs":[`)
	// null in every value position.
	for _, v := range nullVariants(base) {
		seeds = append(seeds, v)
	}
	// Escapes and invalid UTF-8, in values and keys.
	replace(`"rle"`, `"r\u006ce"`)
	replace(`"greedy"`, `"greedy\n"`)
	replace(`"algorithm":`, `"algo\u0072ithm":`)
	replace(`"rle"`, "\"rl\xffe\"")
	replace(`"links":`, "\"links\xff\":")
	replace(`"dense"`, "\"dens\u00e9\"")
	replace(`"rate":`, "\"rate\x01\":")
	// Number edges in float fields, int fields and mc_seed.
	for _, n := range []string{"-0", "1e400", "-1e400", "01", "1.", ".5", "+1", "1e", "0x10", "4.0e0", "1E2", "-0.0"} {
		replace(`"alpha":4`, `"alpha":`+n)
		replace(`"rate":1`, `"rate":`+n)
	}
	for _, n := range []string{"1.0", "1e2", "-0", "-1", "99999999999999999999", "9223372036854775807", "9223372036854775808"} {
		replace(`"mc_slots":10`, `"mc_slots":`+n)
		replace(`"slots":200`, `"slots":`+n)
		replace(`"timeout_ms":500`, `"timeout_ms":`+n)
	}
	for _, n := range []string{"18446744073709551615", "18446744073709551616", "-1", "-0", "7.0"} {
		replace(`"mc_seed":7`, `"mc_seed":`+n)
		replace(`"seed":5`, `"seed":`+n)
	}
	replace(`"no_fading":true`, `"no_fading":1`)
	replace(`"no_fading":true`, `"no_fading":tru`)
	replace(`"no_fading":true`, `"no_fading":"true"`)
	// A BOM, trailing data and whitespace everywhere.
	add("\xef\xbb\xbf" + b)
	add(b + " x")
	add(b + "{}")
	add(b + " \n\t\r")
	add(" " + b)
	var ind bytes.Buffer
	if json.Indent(&ind, base, "\t", "  ") == nil {
		seeds = append(seeds, ind.Bytes())
	}
	add(strings.NewReplacer(",", " ,\r\n", ":", "\t: ", "{", "{ ", "[", "[\n").Replace(b))
	// Structural junk.
	add(``)
	add(`null`)
	add(`[]`)
	add(`{}`)
	add(`{,}`)
	add(b[:len(b)/2])
	add(strings.Replace(b, `}`, `,}`, 1))
	return seeds
}

func fuzzDecode[T any, P wireRequest[T]](f *testing.F, kind string) {
	for _, s := range decodeSeeds(decodeBases(f)[kind]) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode[T, P](t, body) })
}

// FuzzDecodeMatchesStdlibSolve, …Batch, …Traffic and …Session are the
// differential oracle for decodeRequest, one target per request type:
// for any body, the server decoder and a plain strict encoding/json
// decode agree on accept/reject, on the error text and on every bit of
// the decoded struct.
func FuzzDecodeMatchesStdlibSolve(f *testing.F) { fuzzDecode[SolveRequest](f, "solve") }

func FuzzDecodeMatchesStdlibBatch(f *testing.F) { fuzzDecode[BatchRequest](f, "batch") }

func FuzzDecodeMatchesStdlibTraffic(f *testing.F) { fuzzDecode[TrafficRequest](f, "traffic") }

func FuzzDecodeMatchesStdlibSession(f *testing.F) { fuzzDecode[SessionRequest](f, "session") }

// TestCanonicalBodiesTakeFastPath: what json.Marshal emits for each
// request type — compact or indented, with or without optional fields,
// with empty link lists — is read by the canonical reader
// (not handed to encoding/json) and decodes bit-identically. Nil
// slices are the exception: json.Marshal writes them as null.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	links := paperLinks(t, 50, 3)
	for i := range links {
		if i%3 == 0 {
			links[i].Power = float64(i) / 7
		}
	}
	check := func(kind string, body []byte) {
		t.Helper()
		var fast bool
		switch kind {
		case "solve":
			fast = checkDecode[SolveRequest](t, body)
		case "batch":
			fast = checkDecode[BatchRequest](t, body)
		case "traffic":
			fast = checkDecode[TrafficRequest](t, body)
		case "session":
			fast = checkDecode[SessionRequest](t, body)
		}
		if !fast {
			t.Errorf("%s body left the canonical path: %.200s", kind, body)
		}
	}
	// push checks v's compact and indented encodings.
	push := func(kind string, v any) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var ind bytes.Buffer
		if err := json.Indent(&ind, b, "", "  "); err != nil {
			t.Fatal(err)
		}
		check(kind, b)
		check(kind, ind.Bytes())
	}
	for kind, b := range decodeBases(t) {
		check(kind, b)
	}
	push("solve", SolveRequest{Algorithm: "greedy", Links: links, MCSeed: math.MaxUint64})
	push("batch", BatchRequest{Links: links, Configs: []BatchConfig{}})
	push("traffic", TrafficRequest{Links: links, Slots: 10, Rate: 1e-300, Seed: 1 << 63})
	push("session", SessionRequest{Algorithm: "rle", Links: links, Alpha: 3.0000000000000004})
	// Zero-value requests with an empty (not nil: json.Marshal writes a
	// nil slice as null, which the subset leaves to encoding/json) list.
	none := []network.Link{}
	push("solve", SolveRequest{Links: none})
	push("batch", BatchRequest{Links: none, Configs: []BatchConfig{{}}})
	push("traffic", TrafficRequest{Links: none})
	push("session", SessionRequest{Links: none})
}

// TestDecodeRequestLimitSemantics: reading the body whole before
// decoding answers every over-limit, truncated and chunked body exactly
// as the streaming json.Decoder over http.MaxBytesReader did — 413
// only when the decoder needed bytes past the limit, "trailing data"
// when a complete value came first, a syntax error when one came
// first.
func TestDecodeRequestLimitSemantics(t *testing.T) {
	const limit = 256
	small, err := json.Marshal(SolveRequest{Algorithm: "rle", Links: paperLinks(t, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	big, err := json.Marshal(SolveRequest{Algorithm: "rle", Links: paperLinks(t, 10, 2)})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat(" ", limit)
	bodies := map[string]string{
		"fits":                    string(small),
		"over limit":              string(big),
		"value then padding":      string(small) + pad,
		"value then junk":         string(small) + pad + "x",
		"syntax error then bulk":  `{"algorithm":rle` + pad,
		"unknown field then bulk": `{"bogus":1,` + pad,
		"exactly at limit":        string(small) + strings.Repeat(" ", limit-len(small)),
		"one past limit":          string(small) + strings.Repeat(" ", limit-len(small)+1),
		"truncated":               string(small[:len(small)-1]),
	}
	// stream is the decode every handler ran before decodeRequest.
	stream := func(w http.ResponseWriter, r *http.Request) (int, string) {
		var req SolveRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)
			}
			return http.StatusBadRequest, "malformed request: " + err.Error()
		}
		if _, err := dec.Token(); err != io.EOF {
			return http.StatusBadRequest, "trailing data after request"
		}
		return http.StatusOK, ""
	}
	srv := New(Config{MaxBodyBytes: limit})
	defer srv.Close()
	for name, body := range bodies {
		for _, chunked := range []bool{false, true} {
			newReq := func() *http.Request {
				r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
				if chunked {
					r.ContentLength = -1
				}
				return r
			}
			wantCode, wantMsg := stream(httptest.NewRecorder(), newReq())
			rec := httptest.NewRecorder()
			var req SolveRequest
			gotCode, gotMsg := http.StatusOK, ""
			if !decodeRequest(srv, rec, newReq(), &req) {
				var e errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("%s: error envelope: %v", name, err)
				}
				gotCode, gotMsg = rec.Code, e.Error
			}
			if gotCode != wantCode || gotMsg != wantMsg {
				t.Errorf("%s (chunked %v): got %d %q, streaming decode gave %d %q",
					name, chunked, gotCode, gotMsg, wantCode, wantMsg)
			}
		}
	}
}

// decodeBenchBodies are the benchmark bodies: an n=1000 rle solve and
// an n=2000 traffic run, the shapes schedbench's plan and traffic
// workloads send.
func decodeBenchBodies(tb testing.TB) []struct {
	name string
	body []byte
	into func() any
} {
	solve, err := json.Marshal(SolveRequest{Algorithm: "rle", Eps: 0.02, Links: paperLinks(tb, 1000, 42)})
	if err != nil {
		tb.Fatal(err)
	}
	traffic, err := json.Marshal(TrafficRequest{Links: paperLinks(tb, 2000, 42), Slots: 200,
		Policy: "backlog", Arrivals: "bernoulli", Rate: 0.1, Seed: 12345678901234})
	if err != nil {
		tb.Fatal(err)
	}
	return []struct {
		name string
		body []byte
		into func() any
	}{
		{"solve-n1000", solve, func() any { return new(SolveRequest) }},
		{"traffic-n2000", traffic, func() any { return new(TrafficRequest) }},
	}
}

// decodeOnce runs decodeRequest on body as a handler would, with the
// body reader and request reused (rd is reset to body).
func decodeOnce(tb testing.TB, srv *Server, w http.ResponseWriter, r *http.Request, rd *bytes.Reader, body []byte, v any) {
	rd.Reset(body)
	var ok bool
	switch v := v.(type) {
	case *SolveRequest:
		*v = SolveRequest{}
		ok = decodeRequest(srv, w, r, v)
	case *TrafficRequest:
		*v = TrafficRequest{}
		ok = decodeRequest(srv, w, r, v)
	}
	if !ok {
		tb.Fatal("decodeRequest rejected a canonical body")
	}
}

func benchRequest(body []byte) (*http.Request, *bytes.Reader) {
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	r.Body = io.NopCloser(rd)
	r.ContentLength = int64(len(body))
	return r, rd
}

// BenchmarkDecodeRequest is the decode layer alone: body read under
// the limit plus the canonical decode, on an n=1000 solve and an
// n=2000 traffic body. BenchmarkDecodeRequestStdlib is the same bodies
// through the strict encoding/json decode the handlers used before
// (and that non-canonical bodies still take).
//
//	go test -run '^$' -bench 'BenchmarkDecodeRequest' -benchmem ./internal/server/
func BenchmarkDecodeRequest(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	w := httptest.NewRecorder()
	for _, bc := range decodeBenchBodies(b) {
		b.Run(bc.name, func(b *testing.B) {
			r, rd := benchRequest(bc.body)
			v := bc.into()
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decodeOnce(b, srv, w, r, rd, bc.body, v)
			}
		})
	}
}

func BenchmarkDecodeRequestStdlib(b *testing.B) {
	for _, bc := range decodeBenchBodies(b) {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := json.NewDecoder(bytes.NewReader(bc.body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(bc.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeRequestAllocs pins allocs/op on the canonical path: the
// MaxBytesReader, the exact-size link slice and one per string field
// (solve: algorithm; traffic: policy, arrivals). Body buffer and link
// scratch come from the pool; number parsing allocates nothing.
func TestDecodeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	want := map[string]float64{"solve-n1000": 3, "traffic-n2000": 4}
	srv := New(Config{})
	defer srv.Close()
	w := httptest.NewRecorder()
	for _, bc := range decodeBenchBodies(t) {
		r, rd := benchRequest(bc.body)
		v := bc.into()
		got := testing.AllocsPerRun(50, func() { decodeOnce(t, srv, w, r, rd, bc.body, v) })
		if got != want[bc.name] {
			t.Errorf("%s: %v allocs/op, want %v", bc.name, got, want[bc.name])
		}
	}
}
