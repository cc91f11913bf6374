package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// An Entry is one line of the run ledger: a single phase or cell
// event. The field names are a public schema other tools may parse;
// they only ever grow (with omitempty), never change. Every line
// carries a monotonic timestamp (milliseconds since the ledger was
// opened, from the runtime's monotonic clock, so the ordering
// survives wall-clock steps) and a strictly increasing sequence
// number assigned at write time.
type Entry struct {
	// TMS is milliseconds since the ledger was opened (monotonic).
	TMS int64 `json:"t_ms"`
	// Seq is the entry's write sequence number, strictly increasing
	// within one ledger.
	Seq int64 `json:"seq"`
	// Event names what happened: cell_start, cell_done, sweep_start,
	// sweep_done, store_hit, store_miss, store_write, telemetry,
	// compact, assemble_start, assemble_done, serve_request — plus,
	// from the orchestrator's pool: lease, release, steal,
	// steal_cancel, relaunch, quarantine.
	Event string `json:"event"`
	// Phase distinguishes otherwise identical events from different
	// stages of an orchestrated run ("shard" vs "assemble").
	Phase string `json:"phase,omitempty"`
	// Shard is the shard index the event belongs to, when any.
	Shard *int `json:"shard,omitempty"`
	// Cell is the spec-order cell index in the expanded grid, when the
	// event concerns one cell.
	Cell *int `json:"cell,omitempty"`
	// Workload, Point and Scheme identify the cell or store key.
	Workload string `json:"workload,omitempty"`
	Point    string `json:"point,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	// Hit marks store-served cells and store read hits.
	Hit bool `json:"hit,omitempty"`
	// DurMS is the event's duration, for events that span time.
	DurMS int64 `json:"dur_ms,omitempty"`
	// Count carries the event's cardinality (cells packed, telemetry
	// samples, attempt number, …) — see the emitting site.
	Count int `json:"count,omitempty"`
	// Detail is free-form context (campaign name, runner name, layout).
	Detail string `json:"detail,omitempty"`
	// Err is the failure the event records, if any.
	Err string `json:"err,omitempty"`
}

// Int returns a pointer to i, for Entry's optional index fields.
func Int(i int) *int { return &i }

// A Ledger appends one JSON line per Entry to a writer. Record is
// safe for concurrent use; each line is written in a single Write
// call (so an O_APPEND file shared between processes never
// interleaves within a line), and no buffering sits between Record
// and the file — a crashed process loses at most the line being
// written.
type Ledger struct {
	mu    sync.Mutex
	w     io.Writer
	c     io.Closer
	start time.Time
	seq   int64
}

// NewLedger wraps an arbitrary writer (tests, pipes).
func NewLedger(w io.Writer) *Ledger {
	return &Ledger{w: w, start: time.Now()}
}

// OpenLedger opens (appending to, creating if needed) a ledger file.
func OpenLedger(path string) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: ledger: %w", err)
	}
	l := NewLedger(f)
	l.c = f
	return l, nil
}

// Record stamps and appends one entry. Failures are swallowed: a
// ledger line is never worth failing a sweep over.
func (l *Ledger) Record(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	e.TMS = time.Since(l.start).Milliseconds()
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.w.Write(append(line, '\n'))
}

// Close closes the underlying file, if the ledger owns one.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.c == nil {
		return nil
	}
	err := l.c.Close()
	l.c = nil
	return err
}

// active is the process-wide ledger sink instrumented packages emit
// into. Nil (the default) disables emission.
var active atomic.Pointer[Ledger]

// SetLedger installs (or, with nil, removes) the process ledger.
func SetLedger(l *Ledger) {
	if l == nil {
		active.Store(nil)
		return
	}
	active.Store(l)
}

// Enabled reports whether a process ledger is attached. Hot paths
// guard Emit calls with it so building the Entry (which may allocate
// for the optional index pointers) costs nothing when disabled.
func Enabled() bool { return active.Load() != nil }

// Emit records the entry on the process ledger, if one is attached.
func Emit(e Entry) {
	if l := active.Load(); l != nil {
		l.Record(e)
	}
}
