package network

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// instanceJSON is the archival wire format: a format version plus the
// raw links. Geometry caches are rebuilt on load.
type instanceJSON struct {
	Version int    `json:"version"`
	Links   []Link `json:"links"`
}

const formatVersion = 1

// Write serializes the instance as JSON.
func (ls *LinkSet) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(instanceJSON{Version: formatVersion, Links: ls.links})
}

// Read parses an instance previously produced by Write, revalidating
// the links (a hand-edited file goes through the same checks as a
// generated one). Unknown fields and trailing data after the instance
// are rejected: this decoder also guards the network boundary of the
// scheduling service, where a silently ignored tail is a smuggling
// vector, not a convenience. The input is decoded by Decode: Canon's
// link reader on the canonical subset, encoding/json otherwise.
func Read(r io.Reader) (*LinkSet, error) {
	body, readErr := io.ReadAll(r)
	var in instanceJSON
	var c Canon
	if err := Decode(body, readErr, &c, &in, (*instanceJSON).readCanonical); err != nil {
		if errors.Is(err, ErrTrailingData) {
			return nil, fmt.Errorf("network: trailing data after instance")
		}
		return nil, fmt.Errorf("network: decoding instance: %w", err)
	}
	if in.Version != formatVersion {
		return nil, fmt.Errorf("network: unsupported instance format version %d", in.Version)
	}
	return NewLinkSet(in.Links)
}

// readCanonical is instanceJSON's field switch for Decode.
func (in *instanceJSON) readCanonical(c *Canon) {
	for m := c.Object(); m.Next(); {
		switch string(m.Key()) {
		case "version":
			in.Version = c.Int()
		case "links":
			in.Links = c.Links()
		default:
			c.Reject()
		}
	}
}
