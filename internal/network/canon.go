package network

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
)

// Canon is a single-pass reader for the canonical JSON subset that
// json.Marshal emits for Link and the request types built on it: exact
// (case-sensitive) keys, no duplicate keys, no null, strings of
// printable ASCII without escapes, and JSON-grammar numbers. Whitespace
// between tokens is allowed, so indented output such as Write's reads
// too.
//
// Canon never reports an error. On anything outside the subset it
// stops, every later read returns a zero value, and Done reports
// false; Decode then decodes the same bytes with encoding/json. So the
// subset changes neither what is accepted nor how a body is rejected:
// it only skips reflection on the common path. Numbers are converted
// with the strconv calls encoding/json makes on the same token, so an
// accepted value is bit-identical to the stdlib decode.
//
// The zero value is ready to use after Reset. A Canon keeps a scratch
// link slice across Resets; it is not safe for concurrent use.
type Canon struct {
	b   []byte
	i   int
	bad bool
	// keys is a stack of the keys read in each open object, innermost
	// last, for duplicate detection.
	keys  [][]byte
	links []Link
}

// Reset points the reader at b, dropping every reference to the
// previous input.
func (c *Canon) Reset(b []byte) {
	clear(c.keys[:cap(c.keys)])
	c.b, c.i, c.bad, c.keys = b, 0, false, c.keys[:0]
}

// Reject marks the input as outside the subset (the caller met a key
// it does not know).
func (c *Canon) Reject() { c.bad = true }

// Done reports whether everything read was in the subset and only
// whitespace follows it.
func (c *Canon) Done() bool {
	c.ws()
	return !c.bad && c.i == len(c.b)
}

// ws skips JSON whitespace.
func (c *Canon) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// open consumes ch after optional whitespace, rejecting anything else.
func (c *Canon) open(ch byte) {
	c.ws()
	if c.bad || c.i >= len(c.b) || c.b[c.i] != ch {
		c.bad = true
		return
	}
	c.i++
}

// more reads the separator before the n-th item (from 0) of a
// container closed by end: it reports false at end (consuming it) or
// once the input has left the subset, true when an item follows.
func (c *Canon) more(n int, end byte) bool {
	if c.bad {
		return false
	}
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == end {
		c.i++
		return false
	}
	if n > 0 {
		if c.i >= len(c.b) || c.b[c.i] != ',' {
			c.bad = true
			return false
		}
		c.i++
	}
	return true
}

// Members walks one object's members; see Object.
type Members struct {
	c    *Canon
	n    int
	base int // this object's first entry in c.keys
	key  []byte
}

// Object opens an object. Loop over its members with
//
//	for m := c.Object(); m.Next(); {
//		switch string(m.Key()) { ... default: c.Reject() }
//	}
//
// reading exactly one value per member.
func (c *Canon) Object() Members {
	c.open('{')
	return Members{c: c, base: len(c.keys)}
}

// Next advances to the next member and positions the reader at its
// value. It reports false at the closing brace and once the input has
// left the subset, including on a repeated key.
func (m *Members) Next() bool {
	c := m.c
	if !c.more(m.n, '}') {
		c.keys = c.keys[:m.base]
		return false
	}
	key := c.str()
	c.open(':')
	if c.bad {
		return false
	}
	for _, k := range c.keys[m.base:] {
		if bytes.Equal(k, key) {
			c.bad = true
			return false
		}
	}
	c.keys = append(c.keys, key)
	m.n++
	m.key = key
	return true
}

// Key is the current member's key; it aliases the input.
func (m *Members) Key() []byte { return m.key }

// Elements walks one array's elements; see Array.
type Elements struct {
	c *Canon
	n int
}

// Array opens an array. Loop over its elements with
//
//	for a := c.Array(); a.Next(); { ...read one value... }
func (c *Canon) Array() Elements {
	c.open('[')
	return Elements{c: c}
}

// Next reports whether another element follows, positioning the
// reader at it.
func (a *Elements) Next() bool {
	ok := a.c.more(a.n, ']')
	a.n++
	return ok
}

// str reads a string of printable ASCII without escapes and returns
// its bytes (aliasing the input).
func (c *Canon) str() []byte {
	c.open('"')
	if c.bad {
		return nil
	}
	start := c.i
	for ; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1]
		case ch < 0x20 || ch > 0x7e || ch == '\\':
			c.bad = true
			return nil
		}
	}
	c.bad = true
	return nil
}

// Str reads a string value. (Not String: a Canon is no fmt.Stringer,
// since reading advances it.)
func (c *Canon) Str() string { return string(c.str()) }

// Bool reads true or false.
func (c *Canon) Bool() bool {
	c.ws()
	switch {
	case c.bad:
	case bytes.HasPrefix(c.b[c.i:], []byte("true")):
		c.i += 4
		return true
	case bytes.HasPrefix(c.b[c.i:], []byte("false")):
		c.i += 5
	default:
		c.bad = true
	}
	return false
}

// number reads one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is stricter
// than strconv's: "01", "1.", ".5", "+1" and "Inf" all reject.
func (c *Canon) number() []byte {
	c.ws()
	if c.bad {
		return nil
	}
	b, i := c.b, c.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		c.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			c.bad = true
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			c.bad = true
			return nil
		}
	}
	tok := b[c.i:i]
	c.i = i
	return tok
}

// Float reads a number into a float64 as encoding/json does
// (strconv.ParseFloat; out of range rejects).
func (c *Canon) Float() float64 {
	tok := c.number() // nil once the input has left the subset, which strconv rejects
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.bad = true
	}
	return f
}

// Int reads a number into an int as encoding/json does (base-10
// strconv.ParseInt; fractions, exponents and overflow reject).
func (c *Canon) Int() int {
	return int(c.parseInt(strconv.IntSize))
}

// Int64 is Int for int64 fields.
func (c *Canon) Int64() int64 { return c.parseInt(64) }

func (c *Canon) parseInt(bits int) int64 {
	tok := c.number()
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		c.bad = true
		return 0
	}
	return v
}

// Uint64 reads a number into a uint64 as encoding/json does.
func (c *Canon) Uint64() uint64 {
	tok := c.number()
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		c.bad = true
		return 0
	}
	return v
}

// Links reads an array of links into an exact-size slice: non-nil even
// when empty, as encoding/json decodes `[]`.
func (c *Canon) Links() []Link {
	c.links = c.links[:0]
	for a := c.Array(); a.Next(); {
		c.links = append(c.links, Link{})
		c.link(&c.links[len(c.links)-1])
	}
	if c.bad {
		return nil
	}
	return append(make([]Link, 0, len(c.links)), c.links...)
}

func (c *Canon) link(l *Link) {
	for m := c.Object(); m.Next(); {
		switch string(m.Key()) {
		case "sender":
			c.point(&l.Sender.X, &l.Sender.Y)
		case "receiver":
			c.point(&l.Receiver.X, &l.Receiver.Y)
		case "rate":
			l.Rate = c.Float()
		case "power":
			l.Power = c.Float()
		default:
			c.Reject()
		}
	}
}

func (c *Canon) point(x, y *float64) {
	for m := c.Object(); m.Next(); {
		switch string(m.Key()) {
		case "X":
			*x = c.Float()
		case "Y":
			*y = c.Float()
		default:
			c.Reject()
		}
	}
}

// ErrTrailingData is DecodeStrict's error for input after the value.
var ErrTrailingData = errors.New("trailing data")

// DecodeStrict is the reference decode: encoding/json with unknown
// fields rejected, then nothing but whitespace before the end of
// input (else ErrTrailingData). body is the input as read and readErr
// the error that ended the read (nil for a clean end): the decoder sees
// the bytes and then that error, exactly as it would have reading the
// original stream, so buffering the input first changes no outcome:
// an over-limit body still fails with the reader's error unless the
// decoder finishes the value, or finds a syntax error, within the
// bytes read.
func DecodeStrict(body []byte, readErr error, v any) error {
	var r io.Reader = bytes.NewReader(body)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return ErrTrailingData
	}
	return nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// Decode fills v from body. It tries read, a Canon pass over the
// canonical subset, and falls back to DecodeStrict over the same input
// when the read ended in an error or the body left the subset, so the
// result (value or error) is always DecodeStrict's. c is the reader to
// use (its scratch is reused); it holds no reference to body after.
func Decode[T any](body []byte, readErr error, c *Canon, v *T, read func(*T, *Canon)) error {
	if readErr == nil {
		c.Reset(body)
		read(v, c)
		ok := c.Done()
		c.Reset(nil)
		if ok {
			return nil
		}
		var zero T
		*v = zero
	}
	return DecodeStrict(body, readErr, v)
}
