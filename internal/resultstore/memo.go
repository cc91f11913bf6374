package resultstore

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// memoCapacity bounds a Store's memo of verdicts. The paper's whole
// evaluation grid is 180 cells per instruction sample, so the memo
// holds several samples' grids. An entry of that grid takes 2.5 KiB of
// heap on average for its decoded cell, and 8.2 KiB once the cell's
// body has been encoded (Cell.Body), so a full memo of served cells
// holds about 8.2 MiB.
const memoCapacity = 1024

// memoKey names one judged copy: the fingerprint it was read under and
// the SHA-256 of its exact bytes.
type memoKey struct {
	fp  string
	sum [sha256.Size]byte
}

// verdict is decodeCell's judgement of one copy: the cell it decoded
// to, or its refusal.
type verdict struct {
	cell *Cell
	err  error
}

// cellMemo is a Store's bounded memo of verdicts, one per judged copy,
// so a read of unchanged bytes skips the JSON decode and the checks,
// whether they passed or not. Both layouts apply the same rule, so a
// loose file and a segment record with equal bytes share one verdict.
// Reads still read the bytes every time: changed, truncated or corrupt
// bytes hash differently and are judged afresh. The lock is never held
// across file I/O or decoding.
type cellMemo struct {
	mu      sync.Mutex
	entries map[memoKey]verdict
}

// judge returns the verdict on data, read under fingerprint fp, whose
// SHA-256 is sum: that of an earlier judgement of the same bytes, or
// decodeCell's, remembered. It is decodeCell's only caller, so every
// reader of stored bytes applies the one rule, and a cell it returns
// is shared: callers must not modify it.
func (m *cellMemo) judge(fp string, data []byte, sum [sha256.Size]byte) (*Cell, error) {
	key := memoKey{fp, sum}
	m.mu.Lock()
	v, ok := m.entries[key]
	m.mu.Unlock()
	if ok {
		obsDecodeMemo.Inc()
		return v.cell, v.err
	}
	obsDecodeJSON.Inc()
	c, err := decodeCell(data, fp)
	if err == nil {
		c.enc = new(lazyBody) // set before the cell is shared
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[memoKey]verdict)
	}
	if _, ok := m.entries[key]; !ok && len(m.entries) >= memoCapacity {
		for old := range m.entries { // evict an arbitrary entry
			delete(m.entries, old)
			break
		}
	}
	m.entries[key] = verdict{c, err}
	return c, err
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
// Every judgement of stored bytes applies it, through the read memo
// (cellMemo.judge). Any failure is an error, which readers treat as a
// miss.
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

// lazyBody is a shared cell's response body, encoded on the first
// Body call.
type lazyBody struct {
	once sync.Once
	body []byte
	err  error
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
	// for twice the compact encoding, and a shared cell keeps the body.
	body := make([]byte, len(b)+1)
	copy(body, b)
	body[len(b)] = '\n'
	return body, nil
}
