package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// A Trace accumulates Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load): duration slices grouped into
// processes and threads. The orchestrator renders shards as processes
// and cells as slices, so load imbalance across shards is visible at
// a glance. Methods are safe for concurrent use.
//
// Overlapping slices within one process are automatically spread
// across thread lanes: each slice takes the lowest-numbered lane that
// is free at its start time, so concurrent cells stack vertically
// instead of drawing over each other.
type Trace struct {
	mu     sync.Mutex
	meta   []TraceEvent
	events []TraceEvent
	lanes  map[int][]int64 // pid -> per-lane busy-until (us)
	named  map[int]bool
}

// TraceEvent is one entry of the traceEvents array. The field names
// are the trace-event format's, pinned by the schema test.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"` // microseconds
	Dur  *int64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the written top-level object ("JSON Object Format").
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{lanes: make(map[int][]int64), named: make(map[int]bool)}
}

// ProcessName labels a process (pid) lane, once; later calls for the
// same pid are ignored.
func (t *Trace) ProcessName(pid int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.named[pid] {
		return
	}
	t.named[pid] = true
	t.meta = append(t.meta, TraceEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
}

// Slice records one complete duration slice ("ph":"X") in the given
// process. Times are microseconds on the trace's own axis; a zero
// duration is legal (store hits render as zero-width slices but still
// count). The thread lane is assigned automatically.
func (t *Trace) Slice(pid int, name string, startUS, durUS int64, args map[string]any) {
	if startUS < 0 {
		startUS = 0
	}
	if durUS < 0 {
		durUS = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lanes := t.lanes[pid]
	tid := -1
	for i, busyUntil := range lanes {
		if busyUntil <= startUS {
			tid = i
			break
		}
	}
	if tid == -1 {
		tid = len(lanes)
		lanes = append(lanes, 0)
	}
	lanes[tid] = startUS + durUS
	t.lanes[pid] = lanes
	dur := durUS
	t.events = append(t.events, TraceEvent{
		Name: name, Ph: "X", TS: startUS, Dur: &dur, PID: pid, TID: tid, Args: args,
	})
}

// Counter records one sample of a named counter track ("ph":"C").
// Perfetto renders each distinct (pid, name) pair as its own track,
// plotting every key of values as a series; multiple keys stack.
// Counter events carry no duration and live outside the slice-lane
// allocator (tid 0 by convention).
func (t *Trace) Counter(pid int, name string, tsUS int64, values map[string]float64) {
	if tsUS < 0 {
		tsUS = 0
	}
	args := make(map[string]any, len(values))
	for k, v := range values {
		args[k] = v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, TraceEvent{
		Name: name, Ph: "C", TS: tsUS, PID: pid, Args: args,
	})
}

// Counts reports the duration slices and the counter samples
// recorded so far (metadata is not counted).
func (t *Trace) Counts() (slices, samples int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.events {
		if e.Ph == "X" {
			slices++
		} else {
			samples++
		}
	}
	return slices, samples
}

// WriteTo renders the trace as one JSON object. Slices are sorted by
// (pid, ts) so output is deterministic for a given event set.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	t.mu.Lock()
	events := make([]TraceEvent, 0, len(t.meta)+len(t.events))
	events = append(events, t.meta...)
	events = append(events, t.events...)
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].PID != events[j].PID {
			return events[i].PID < events[j].PID
		}
		return events[i].TS < events[j].TS
	})
	buf, err := json.MarshalIndent(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
	if err != nil {
		return 0, fmt.Errorf("obs: trace: %w", err)
	}
	buf = append(buf, '\n')
	n, err := w.Write(buf)
	return int64(n), err
}

// WriteFile writes the trace to path (truncating), ready for
// chrome://tracing or https://ui.perfetto.dev "Open trace file".
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
