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

// memoEntry is one verified decode: the SHA-256 of the exact bytes
// that were decoded and passed decodeCell, and the cell they decoded
// to, which carries its encoded body (Cell.Body).
type memoEntry struct {
	sum  [sha256.Size]byte
	cell *Cell
}

// cellMemo is a Store's bounded memo of verified decodes, one per
// fingerprint, so a read of unchanged bytes skips the JSON decode and
// the checks. Both layouts apply the same rule (decodeCell), so a
// fingerprint's loose and packed copies share one entry. Reads still
// read the bytes every time: changed, truncated or corrupt bytes hash
// differently and are judged afresh. The lock is never held across
// file I/O or decoding.
type cellMemo struct {
	mu      sync.Mutex
	entries map[string]memoEntry
}

// decode returns the cell that data, read under fingerprint fp,
// decodes to. It reuses the cell of an earlier verified decode of the
// same bytes, and otherwise judges data afresh (decodeCell) and
// encodes the cell's body (encodeBody), remembering the result if both
// succeed. The body is set before the cell is shared, so readers never
// see it change.
func (m *cellMemo) decode(fp string, data []byte, sum [sha256.Size]byte) (*Cell, error) {
	m.mu.Lock()
	e, ok := m.entries[fp]
	m.mu.Unlock()
	if ok && e.sum == sum {
		obsDecodeMemo.Inc()
		return e.cell, nil
	}
	obsDecodeJSON.Inc()
	c, err := decodeCell(data, fp)
	if err == nil {
		c.body, err = encodeBody(c)
	}
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[string]memoEntry)
	}
	if _, ok := m.entries[fp]; !ok && len(m.entries) >= memoCapacity {
		for old := range m.entries { // evict an arbitrary entry
			delete(m.entries, old)
			break
		}
	}
	m.entries[fp] = memoEntry{sum, c}
	return c, nil
}

// errSchema marks bytes written under another engine schema. Merge
// refuses a source store holding such a cell.
var errSchema = errors.New("schema")

// decodeCell is the store's one rule for a valid stored cell. It
// parses data, read under fingerprint fp from a loose file
// cells/<fp[:2]>/<fp>.json or from a segment record, and accepts it
// only if
//
//  1. it carries this engine's schema version;
//  2. its embedded fingerprint is fp;
//  3. its identity fields (workload, scheme, config, fault) fingerprint
//     to fp;
//  4. it sets exactly the payload its key produces (see Cell).
//
// Every read of a cell's content applies it: Get and GetFingerprint
// through the read memo, and Compact, Merge and Verify directly. Any
// failure is an error, which readers treat as a miss.
func decodeCell(data []byte, fp string) (*Cell, error) {
	var c Cell
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	switch {
	case c.Schema != SchemaVersion:
		return nil, fmt.Errorf("%w %d, engine reads %d", errSchema, c.Schema, SchemaVersion)
	case c.Fingerprint != fp || (Key{Workload: c.Workload, Scheme: c.Scheme, Config: c.Config, Fault: c.Fault}).Fingerprint() != fp:
		return nil, errors.New("fingerprint does not match content")
	case !c.payloadMatchesKey():
		return nil, errors.New("payload does not match key")
	}
	return &c, nil
}

// payloadMatchesKey reports whether exactly the payload the cell's key
// produces is set: FaultRecord for a fault cell, Baseline for lockstep
// and RMT, Result otherwise.
func (c *Cell) payloadMatchesKey() bool {
	fault := c.Fault != nil
	baseline := !fault && (c.Scheme == "lockstep" || c.Scheme == "rmt")
	return (c.FaultRecord != nil) == fault && (c.Baseline != nil) == baseline &&
		(c.Result != nil) == (!fault && !baseline)
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
