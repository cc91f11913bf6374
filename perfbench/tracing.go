package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paradet"
	"paradet/internal/campaign"
	"paradet/internal/obs"
	"paradet/internal/resultstore"
	"paradet/internal/serve"
)

// span is one timed call across a layer boundary. Spans of one op
// share the op id; parent is the id of the enclosing span, or -1.
type span struct {
	id, parent, op int
	name           string
	start, end     time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory for the traced run and writes them out
// once, at the end, as a Chrome trace. Methods are safe for concurrent
// use: figure_cold's campaign workers record spans from two
// goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id. A nil tracer records nothing
// and returns -1, so untraced code paths call it unconditionally.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, start: now, end: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds a span whose times are already known (a campaign cell,
// reported after it finished with its elapsed time).
func (t *tracer) record(op, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans), parent: parent, op: op, name: name,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeChrome writes the spans in the repository's Chrome trace-event
// format (obs.Trace), one process lane per workload.
func (t *tracer) writeChrome(path, workload string) error {
	tr := obs.NewTrace()
	tr.ProcessName(1, workload)
	for _, s := range t.snapshot() {
		tr.Slice(1, s.name, s.start.Microseconds(), s.dur().Microseconds(),
			map[string]any{"op": s.op, "id": s.id, "parent": s.parent})
	}
	return tr.WriteFile(path)
}

// spanSet indexes closed spans for the per-layer derivations.
type spanSet struct {
	spans    []span
	children map[int][]int // parent id -> child indices into spans
}

func newSpanSet(spans []span) *spanSet {
	ss := &spanSet{spans: spans, children: make(map[int][]int)}
	for i, s := range spans {
		ss.children[s.parent] = append(ss.children[s.parent], i)
	}
	return ss
}

// sum totals the duration and count of every span with the name.
func (ss *spanSet) sum(name string) (total time.Duration, n int) {
	for _, s := range ss.spans {
		if s.name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// durations lists the durations of every span with the name.
func (ss *spanSet) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ss.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// self is a span's duration minus the part of its interval that its
// child spans cover; overlapping children (parallel workers) count
// once.
func (ss *spanSet) self(i int) time.Duration {
	s := ss.spans[i]
	var iv [][2]time.Duration
	for _, c := range ss.children[s.id] {
		cs := ss.spans[c]
		lo, hi := max(cs.start, s.start), min(cs.end, s.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	return s.dur() - unionLength(iv)
}

// selfSum totals self over every span with the name.
func (ss *spanSet) selfSum(name string) time.Duration {
	var total time.Duration
	for i, s := range ss.spans {
		if s.name == name {
			total += ss.self(i)
		}
	}
	return total
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// parentRef is where a wrapper hangs its spans: the op and the span
// that is current when the wrapped layer is called. The serving
// client sets it before each request; the figure runner before each
// figure.
type parentRef struct {
	op, span atomic.Int64
}

func (p *parentRef) set(op, span int) {
	p.op.Store(int64(op))
	p.span.Store(int64(span))
}

func (p *parentRef) get() (op, span int) { return int(p.op.Load()), int(p.span.Load()) }

// Simulator span names, one per campaign.Simulator method.
const (
	spanLoad        = "campaign.Load"
	spanRun         = "paradet.Run"
	spanUnprotected = "paradet.RunUnprotected"
	spanLockstep    = "lockstep.Run"
	spanRMT         = "rmt.Run"
	spanClassify    = "fault.Classify"
)

// spanner opens spans under whatever parentRef currently names.
type spanner struct {
	t  *tracer
	at *parentRef
}

// span opens a span and returns the function that closes it.
func (sp spanner) span(name string) func() {
	op, parent := sp.at.get()
	id := sp.t.begin(op, parent, name)
	return func() { sp.t.end(id) }
}

// timedSim wraps a campaign.Simulator with one span per call. It is
// passed as experiments.Options.Sim or serve.Config.Sim in the traced
// run only.
type timedSim struct {
	spanner
	inner campaign.Simulator
}

func (s *timedSim) Load(ctx context.Context, name string) (*paradet.Program, paradet.WorkloadInfo, error) {
	defer s.span(spanLoad)()
	return s.inner.Load(ctx, name)
}

func (s *timedSim) Run(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	defer s.span(spanRun)()
	return s.inner.Run(ctx, cfg, p)
}

func (s *timedSim) RunUnprotected(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	defer s.span(spanUnprotected)()
	return s.inner.RunUnprotected(ctx, cfg, p)
}

func (s *timedSim) RunLockstep(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error) {
	defer s.span(spanLockstep)()
	return s.inner.RunLockstep(ctx, cfg, p)
}

func (s *timedSim) RunRMT(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error) {
	defer s.span(spanRMT)()
	return s.inner.RunRMT(ctx, cfg, p)
}

func (s *timedSim) ClassifyFault(ctx context.Context, cfg paradet.Config, p *paradet.Program, f paradet.Fault, golden *paradet.Result) (paradet.FaultRecord, error) {
	defer s.span(spanClassify)()
	return s.inner.ClassifyFault(ctx, cfg, p, f, golden)
}

// Target span names.
const (
	spanTargetCell   = "target.Cell"
	spanTargetLookup = "target.Lookup"
)

// timedTarget wraps a serve.Target with one span per store read. It is
// passed as serve.Config.Target in the traced run only.
type timedTarget struct {
	spanner
	inner serve.Target
}

func (tt *timedTarget) Cell(fp string) (*resultstore.Cell, bool) {
	defer tt.span(spanTargetCell)()
	return tt.inner.Cell(fp)
}

func (tt *timedTarget) Lookup(k resultstore.Key) (*resultstore.Cell, bool) {
	defer tt.span(spanTargetLookup)()
	return tt.inner.Lookup(k)
}

func (tt *timedTarget) Store() *resultstore.Store { return tt.inner.Store() }

func (tt *timedTarget) Index() ([]resultstore.IndexEntry, error) { return tt.inner.Index() }

// storeCounters are the result store's own obs counters, fetched by
// name from the default registry; the per-layer store metrics are
// their deltas across traced ops.
type storeCounters struct {
	looseHits, segmentHits, misses, writes *obs.Counter
	writeSecs                              *obs.Histogram
}

func newStoreCounters() storeCounters {
	reads := obs.Default().CounterVec("paradet_store_reads_total", "", "result")
	return storeCounters{
		looseHits:   reads.With("hit_loose"),
		segmentHits: reads.With("hit_segment"),
		misses:      reads.With("miss"),
		writes:      obs.Default().Counter("paradet_store_writes_total", ""),
		writeSecs:   obs.Default().Histogram("paradet_store_write_seconds", "", nil),
	}
}

// storeReading is one reading of storeCounters.
type storeReading struct {
	looseHits, segmentHits, misses, writes uint64
	writeSecs                              float64
}

func (c storeCounters) read() storeReading {
	return storeReading{
		looseHits:   c.looseHits.Value(),
		segmentHits: c.segmentHits.Value(),
		misses:      c.misses.Value(),
		writes:      c.writes.Value(),
		writeSecs:   c.writeSecs.Sum(),
	}
}

// addDelta accumulates the change between two readings.
func (a *storeReading) addDelta(before, after storeReading) {
	a.looseHits += after.looseHits - before.looseHits
	a.segmentHits += after.segmentHits - before.segmentHits
	a.misses += after.misses - before.misses
	a.writes += after.writes - before.writes
	a.writeSecs += after.writeSecs - before.writeSecs
}
