package orchestrator

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"

	"paradet/internal/campaign"
)

// ProtocolVersion is the progress-line schema version. Lines carrying
// any other version are treated as ordinary stderr text, so a newer
// worker never confuses an older orchestrator (or vice versa) — it
// just degrades to unparsed output.
const ProtocolVersion = 1

// Event is one line of the machine-readable progress protocol: the
// -progress-json mode of cmd/experiments and cmd/hetsim emits exactly
// one JSON-encoded Event per completed cell on stderr, and the
// orchestrator decodes them into its live aggregate. The field names
// are a public interface other tools may parse; they are pinned by a
// golden test and must only ever grow (with omitempty), never change.
type Event struct {
	// V is the protocol version (ProtocolVersion).
	V int `json:"v"`
	// Shard and Shards locate the emitting worker (0 of 1 when the run
	// is unsharded, e.g. an assembly pass).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Cell is the finished cell's spec-order index in the expanded
	// grid — stable across shards and worker counts.
	Cell int `json:"cell"`
	// Done and Total count this worker's cells, accumulated across the
	// sweeps of a multi-figure run (Total grows as sweeps start).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Hit marks the finished cell as store-served; Hits and Sims are
	// the worker's running totals (cells plus reference runs).
	Hit  bool `json:"hit"`
	Hits int  `json:"hits"`
	Sims int  `json:"sims"`
	// Workload, Point and Scheme identify the finished cell.
	Workload string `json:"workload"`
	Point    string `json:"point"`
	Scheme   string `json:"scheme"`
	// ElapsedMS is wall time since the worker started.
	ElapsedMS int64 `json:"elapsed_ms"`
	// SimMS is the finished cell's own simulation latency in
	// milliseconds (omitted for store-served cells, which cost no
	// simulation time). Added by protocol revision 2; absent on lines
	// from older workers, which version-1 decoders ignore by design.
	SimMS int64 `json:"sim_ms,omitempty"`
	// EtaMS estimates the worker's remaining wall time from its own
	// observed cell rate (omitted until one cell has finished and after
	// the last). Added by protocol revision 2.
	EtaMS int64 `json:"eta_ms,omitempty"`
	// FP is the finished cell's store fingerprint, which also names its
	// telemetry sidecar. Added by protocol revision 3.
	FP string `json:"fp,omitempty"`
	// Err is the cell's failure, if any.
	Err string `json:"err,omitempty"`
}

// Emitter returns a campaign.ProgressFunc that writes one Event line
// per completed cell to w. A multi-sweep run (experiments -run all)
// restarts the engine's Done counter per sweep; the emitter folds
// finished sweeps into a base so Done/Total/Hits/Sims accumulate
// monotonically across the whole process, which is what the
// orchestrator's aggregate wants.
func Emitter(w io.Writer, shard *campaign.Shard, start time.Time) campaign.ProgressFunc {
	e := &emitter{w: w, start: start, shards: 1}
	if shard != nil {
		e.shard, e.shards = shard.Index, shard.Count
	}
	return e.observe
}

type emitter struct {
	w             io.Writer
	start         time.Time
	shard, shards int

	mu sync.Mutex
	// base* fold completed sweeps; last* track the current sweep.
	baseDone, baseTotal, baseHits, baseSims int
	lastDone, lastTotal, lastHits, lastSims int
}

func (e *emitter) observe(p campaign.Progress) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p.Done <= e.lastDone { // a new sweep began
		e.baseDone += e.lastDone
		e.baseTotal += e.lastTotal
		e.baseHits += e.lastHits
		e.baseSims += e.lastSims
	}
	e.lastDone = p.Done
	e.lastTotal = p.Total
	e.lastHits = p.CellHits + p.BaselineHits
	e.lastSims = p.CellSims + p.BaselineSims
	evt := Event{
		V:         ProtocolVersion,
		Shard:     e.shard,
		Shards:    e.shards,
		Cell:      p.Cell,
		Done:      e.baseDone + e.lastDone,
		Total:     e.baseTotal + e.lastTotal,
		Hit:       p.Cached,
		Hits:      e.baseHits + e.lastHits,
		Sims:      e.baseSims + e.lastSims,
		Workload:  p.Workload,
		Point:     p.Label,
		Scheme:    string(p.Scheme),
		ElapsedMS: time.Since(e.start).Milliseconds(),
		FP:        p.Fingerprint,
	}
	if !p.Cached {
		evt.SimMS = p.Elapsed.Milliseconds()
	}
	// The ETA extrapolates the worker's observed rate over its
	// remaining cells; it goes silent at the boundaries where the rate
	// is undefined (no cells yet) or moot (all done).
	if evt.Done > 0 && evt.Done < evt.Total {
		evt.EtaMS = evt.ElapsedMS * int64(evt.Total-evt.Done) / int64(evt.Done)
	}
	if p.Err != nil {
		evt.Err = p.Err.Error()
	}
	line, err := json.Marshal(evt)
	if err != nil {
		return // a progress line is never worth failing a sweep over
	}
	line = append(line, '\n')
	e.w.Write(line)
}

// A Decoder incrementally splits a worker's stderr stream into
// protocol Events and ordinary text lines. Write accepts arbitrary
// chunks — partial lines, several lines at once, protocol lines
// interleaved with plain diagnostics — and invokes OnEvent or OnLine
// per completed line; Close flushes a trailing unterminated line
// (e.g. from a worker killed mid-write).
type Decoder struct {
	// OnEvent receives each decoded protocol event.
	OnEvent func(Event)
	// OnLine receives each non-empty line that is not a protocol event.
	OnLine func(string)

	buf bytes.Buffer
}

// maxLineBytes bounds a buffered partial line. Protocol events are a
// few hundred bytes, so only pathological worker output (binary spew,
// newline-free diagnostics) ever hits the cap; it is force-flushed as
// a plain line instead of growing the orchestrator's memory.
const maxLineBytes = 64 * 1024

// Write implements io.Writer so a Decoder can sit directly on a
// worker's stderr.
func (d *Decoder) Write(p []byte) (int, error) {
	d.buf.Write(p)
	for {
		b := d.buf.Bytes()
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			if d.buf.Len() > maxLineBytes {
				d.line(d.buf.String())
				d.buf.Reset()
			}
			break
		}
		line := string(b[:i])
		d.buf.Next(i + 1)
		d.line(line)
	}
	return len(p), nil
}

// Close flushes a trailing line that never saw its newline.
func (d *Decoder) Close() error {
	if d.buf.Len() > 0 {
		d.line(d.buf.String())
		d.buf.Reset()
	}
	return nil
}

func (d *Decoder) line(s string) {
	s = strings.TrimSuffix(s, "\r")
	if strings.HasPrefix(s, "{") {
		var e Event
		if err := json.Unmarshal([]byte(s), &e); err == nil && e.V == ProtocolVersion {
			if d.OnEvent != nil {
				d.OnEvent(e)
			}
			return
		}
	}
	if s != "" && d.OnLine != nil {
		d.OnLine(s)
	}
}

// tailBuffer keeps roughly the last max bytes of a worker's plain
// stderr lines, so a shard that exhausts its retries can be reported
// with the diagnostics it died printing. It is safe for concurrent
// use: with stealing active, a shard's primary and duplicate attempts
// feed the same buffer from separate decoder goroutines.
type tailBuffer struct {
	max   int
	mu    sync.Mutex
	lines []string
	size  int
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	t.size += len(line) + 1
	for len(t.lines) > 1 && t.size > t.max {
		t.size -= len(t.lines[0]) + 1
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
