package resultstore

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// memoCapacity bounds a Store's memo of verified decodes. The paper's
// whole evaluation grid is 180 cells per instruction sample, so the
// memo holds several samples' grids. An entry of that grid takes
// 8.2 KiB of heap on average (2.5 KiB of decoded cell, the rest its
// encoded body), so a full memo holds about 8.2 MiB.
const memoCapacity = 1024

// layer names the layout a cell was read from. The two apply
// different checks to a decode, so the memo keeps their entries apart:
// a packed read never reuses a decode that passed only the loose
// checks.
type layer uint8

const (
	looseLayer layer = iota
	packedLayer
)

type memoKey struct {
	fp    string
	layer layer
}

// memoEntry is one verified decode: the SHA-256 of the exact bytes
// that were decoded and passed their layer's checks, and the cell they
// decoded to, which carries its encoded body (Cell.Body).
type memoEntry struct {
	sum  [sha256.Size]byte
	cell *Cell
}

// cellMemo is a Store's bounded memo of verified decodes, so a read
// of unchanged bytes skips the JSON decode and the identity checks.
// Reads still read the bytes every time: changed, truncated or
// corrupt bytes hash differently and are judged afresh. The lock is
// never held across file I/O or decoding.
type cellMemo struct {
	mu      sync.Mutex
	entries map[memoKey]memoEntry
}

// decode returns the cell that data, read from layer l under
// fingerprint fp, decodes to. It reuses the cell of an earlier
// verified decode of the same bytes, and otherwise decodes and checks
// data afresh (decodeCell) and encodes the cell's body (encodeBody),
// remembering the result if both succeed. The body is set before the
// cell is shared, so readers never see it change.
func (m *cellMemo) decode(fp string, l layer, data []byte, sum [sha256.Size]byte) (*Cell, error) {
	k := memoKey{fp, l}
	m.mu.Lock()
	e, ok := m.entries[k]
	m.mu.Unlock()
	if ok && e.sum == sum {
		obsDecodeMemo.Inc()
		return e.cell, nil
	}
	obsDecodeJSON.Inc()
	c, err := decodeCell(data, fp, l)
	if err == nil {
		c.body, err = encodeBody(c)
	}
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[memoKey]memoEntry)
	}
	if _, ok := m.entries[k]; !ok && len(m.entries) >= memoCapacity {
		for old := range m.entries { // evict an arbitrary entry
			delete(m.entries, old)
			break
		}
	}
	m.entries[k] = memoEntry{sum, c}
	return c, nil
}

// decodeCell parses one cell read from layer l under fingerprint fp
// and applies that layer's checks. Both layers check the schema
// version and the embedded fingerprint. A packed record must also
// fingerprint to fp from its own identity fields, because its footer,
// not its file name, says which cell it is.
func decodeCell(data []byte, fp string, l layer) (*Cell, error) {
	var c Cell
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	if c.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema %d, engine reads %d", c.Schema, SchemaVersion)
	}
	if c.Fingerprint != fp ||
		l == packedLayer && (Key{Workload: c.Workload, Scheme: c.Scheme, Config: c.Config, Fault: c.Fault}).Fingerprint() != fp {
		return nil, errors.New("fingerprint does not match content")
	}
	return &c, nil
}

// encodeBody renders a cell as served: its canonical JSON, indented as
// Put writes it, plus a newline. It never reuses the bytes a cell was
// read from, which may be compact or carry fields the decode ignored.
func encodeBody(c *Cell) ([]byte, error) {
	b, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return nil, err
	}
	// Copy into an exact-size slice: MarshalIndent's buffer has room
	// for twice the compact encoding, and the memo keeps the body.
	body := make([]byte, len(b)+1)
	copy(body, b)
	body[len(b)] = '\n'
	return body, nil
}
