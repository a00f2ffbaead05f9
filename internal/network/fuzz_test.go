package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// FuzzRead hardens the instance decoder: arbitrary bytes must either
// parse into a fully-validated LinkSet or return an error — never
// panic, and never produce an instance that violates the invariants
// NewLinkSet enforces.
func FuzzRead(f *testing.F) {
	// Seed corpus: a valid instance, near-misses, and junk.
	valid, err := Generate(PaperConfig(5), 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := valid.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"links":[]}`))
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0},"rate":1}]}`))
	f.Add([]byte(`{"version":2,"links":[]}`))
	f.Add([]byte(`{"version":1,"links":[{"rate":-1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":1e309,"Y":0},"receiver":{"X":1,"Y":0},"rate":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ls, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable
		}
		// Anything accepted must satisfy the instance invariants.
		for i := 0; i < ls.Len(); i++ {
			if !(ls.Rate(i) > 0) {
				t.Fatalf("accepted instance with rate %v", ls.Rate(i))
			}
			if !(ls.Length(i) > 0) {
				t.Fatalf("accepted instance with length %v", ls.Length(i))
			}
		}
		// Round trip: what we accepted must re-serialize and re-parse
		// to the same instance.
		var buf bytes.Buffer
		if err := ls.Write(&buf); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Len() != ls.Len() {
			t.Fatalf("round trip changed size: %d → %d", ls.Len(), back.Len())
		}
	})
}

// FuzzReadLinkSet is the hostile-input hardening target for the
// decoder that now also guards the scheduling service's request
// boundary: whatever bytes arrive, Read must either reject with an
// error or produce a LinkSet that (a) satisfies every NewLinkSet
// invariant — finite geometry, positive finite rates, positive
// lengths, no duplicate sender/receiver locations (the instance-level
// "IDs") — and (b) round-trips Write→Read losslessly, field for field
// and byte for byte in canonical form.
func FuzzReadLinkSet(f *testing.F) {
	valid, err := Generate(PaperConfig(4), 99, 0)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := valid.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// NaN / Inf lengths and coordinates (JSON has no NaN literal, so
	// hostile encodings arrive as overflow values or string smuggling).
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":1e400,"Y":0},"receiver":{"X":1,"Y":0},"rate":1}]}`))
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":"NaN","Y":0},"receiver":{"X":1,"Y":0},"rate":1}]}`))
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0},"rate":1e999}]}`))
	// Zero-length link (sender == receiver).
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":3,"Y":4},"receiver":{"X":3,"Y":4},"rate":1}]}`))
	// Duplicate identities: two links sharing a sender, two sharing a receiver.
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0},"rate":1},{"sender":{"X":0,"Y":0},"receiver":{"X":2,"Y":0},"rate":1}]}`))
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0},"rate":1},{"sender":{"X":5,"Y":0},"receiver":{"X":1,"Y":0},"rate":1}]}`))
	// Negative / zero / absent rates, negative power.
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0},"rate":0}]}`))
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0}}]}`))
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0},"rate":1,"power":-2}]}`))
	// Structural abuse: trailing data, duplicate keys, deep junk.
	f.Add([]byte(`{"version":1,"links":[]}{"version":1,"links":[]}`))
	f.Add([]byte(`{"version":1,"version":2,"links":[]}`))
	f.Add([]byte(`{"version":1,"links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0},"rate":1}]} trailing`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ls, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		seenS := map[[2]float64]bool{}
		seenR := map[[2]float64]bool{}
		for i := 0; i < ls.Len(); i++ {
			l := ls.Link(i)
			for _, v := range []float64{l.Sender.X, l.Sender.Y, l.Receiver.X, l.Receiver.Y, l.Rate, l.Power} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite field %v in link %d", v, i)
				}
			}
			if !(ls.Rate(i) > 0) || !(ls.Length(i) > 0) || l.Power < 0 {
				t.Fatalf("accepted invalid link %d: %+v", i, l)
			}
			sk := [2]float64{l.Sender.X, l.Sender.Y}
			rk := [2]float64{l.Receiver.X, l.Receiver.Y}
			if seenS[sk] || seenR[rk] {
				t.Fatalf("accepted duplicate endpoint identity in link %d", i)
			}
			seenS[sk], seenR[rk] = true, true
		}
		// Lossless round trip: Write→Read must reproduce every field,
		// and re-serializing must be byte-stable (canonical form).
		var out1 bytes.Buffer
		if err := ls.Write(&out1); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := Read(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Len() != ls.Len() {
			t.Fatalf("round trip changed size: %d → %d", ls.Len(), back.Len())
		}
		for i := 0; i < ls.Len(); i++ {
			if back.Link(i) != ls.Link(i) {
				t.Fatalf("link %d changed in round trip: %+v → %+v", i, ls.Link(i), back.Link(i))
			}
		}
		var out2 bytes.Buffer
		if err := back.Write(&out2); err != nil {
			t.Fatalf("second serialize failed: %v", err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("canonical form not byte-stable:\n%s\nvs\n%s", out1.Bytes(), out2.Bytes())
		}
	})
}

// readStdlib is Read as it was before the canonical reader: the strict
// encoding/json decode, then the version and link checks.
func readStdlib(data []byte) (*LinkSet, error) {
	var in instanceJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("network: decoding instance: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("network: trailing data after instance")
	}
	if in.Version != formatVersion {
		return nil, fmt.Errorf("network: unsupported instance format version %d", in.Version)
	}
	return NewLinkSet(in.Links)
}

// sameLinkBits compares two instances field by field on IEEE-754 bit
// patterns, so -0 and 0 differ.
func sameLinkBits(a, b *LinkSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		x, y := a.Link(i), b.Link(i)
		for k, v := range []float64{x.Sender.X, x.Sender.Y, x.Receiver.X, x.Receiver.Y, x.Rate, x.Power} {
			w := []float64{y.Sender.X, y.Sender.Y, y.Receiver.X, y.Receiver.Y, y.Rate, y.Power}[k]
			if math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeMatchesStdlibRead is the differential oracle for Read's
// canonical link reader: for any input, Read and the plain strict
// encoding/json decode agree on accept/reject, on the error text and
// on every bit of every accepted link.
func FuzzDecodeMatchesStdlibRead(f *testing.F) {
	valid, err := Generate(PaperConfig(3), 5, 0)
	if err != nil {
		f.Fatal(err)
	}
	links := valid.Links()
	links[2].Power = 1.5
	var indented bytes.Buffer
	if err := MustNewLinkSet(links).Write(&indented); err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(instanceJSON{Version: 1, Links: links})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	f.Add(compact)
	b := string(compact)
	for _, r := range [][2]string{
		// Case-folded keys.
		{`"X":`, `"x":`}, {`"sender":`, `"SENDER":`}, {`"sender":`, `"ſender":`},
		{`"links":`, `"lin` + "K" + `s":`}, {`"version":`, `"Version":`},
		// Duplicates: scalar, nested object (merged), links.
		{`"version":1`, `"version":1,"version":1`}, {`{"X":`, `{"X":9,"X":`},
		{`"sender":{`, `"sender":{"Y":3},"sender":{`},
		{`"links":[`, `"links":[{"rate":2,"power":4}],"links":[`},
		// null in every kind of position.
		{`"version":1`, `"version":null`}, {`"links":[`, `"links":null,"x":[`},
		{`"links":[`, `"links":[null,`}, {`"sender":{`, `"sender":null,"y":{`},
		{`{"X":`, `{"X":null,"x":`}, {`"rate":1`, `"rate":null`}, {`"power":1.5`, `"power":null`},
		// Escapes and invalid UTF-8.
		{`"rate":`, `"r\u0061te":`}, {`"rate":`, "\"rate\xff\":"}, {`"X":`, `"\u0058":`},
		{`"rate":`, "\"rat\u00e9\":"},
		// Number edges: floats and the int version field.
		{`"rate":1`, `"rate":-0`}, {`"rate":1`, `"rate":1e400`}, {`"rate":1`, `"rate":01`},
		{`"rate":1`, `"rate":1.`}, {`"rate":1`, `"rate":1E0`}, {`"power":1.5`, `"power":-0.0`},
		{`"version":1`, `"version":1.0`}, {`"version":1`, `"version":1e0`},
		{`"version":1`, `"version":99999999999999999999`}, {`"version":1`, `"version":-0`},
	} {
		if strings.Contains(b, r[0]) {
			f.Add([]byte(strings.Replace(b, r[0], r[1], 1)))
		}
	}
	// A BOM, trailing data, whitespace everywhere, junk.
	f.Add([]byte("\xef\xbb\xbf" + b))
	f.Add([]byte(b + " 1"))
	f.Add([]byte(b + "\r\n\t "))
	f.Add([]byte(strings.NewReplacer(",", " , ", ":", " :\n", "[", "[\t").Replace(b)))
	f.Add([]byte(`{"version":1,"links":[]}`))
	f.Add([]byte(`{"links":[]}`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := Read(bytes.NewReader(data))
		want, wantErr := readStdlib(data)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("Read err %v, encoding/json err %v on %q", gotErr, wantErr, data)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("Read err %q, encoding/json err %q on %q", gotErr, wantErr, data)
		case gotErr == nil && !sameLinkBits(got, want):
			t.Fatalf("Read and encoding/json decoded different links from %q", data)
		}
	})
}

// TestWriteOutputIsCanonical: what Write produces (indented) and what
// json.Marshal produces for a link list both stay on the canonical
// reader, so loading an instance file never needs encoding/json.
func TestWriteOutputIsCanonical(t *testing.T) {
	ls, err := Generate(PaperConfig(40), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ls.Write(&buf); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(instanceJSON{Version: 1, Links: ls.Links()})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{buf.Bytes(), compact} {
		var c Canon
		var in instanceJSON
		c.Reset(body)
		in.readCanonical(&c)
		if !c.Done() {
			t.Fatalf("canonical reader refused %.120s", body)
		}
		if len(in.Links) != ls.Len() || cap(in.Links) != ls.Len() {
			t.Fatalf("links len %d cap %d, want exact size %d", len(in.Links), cap(in.Links), ls.Len())
		}
	}
}
