package core

import (
	"fmt"

	"paradet/internal/isa"
	"paradet/internal/obs/telemetry"
	"paradet/internal/sim"
	"paradet/internal/stats"
)

// Config sizes the detection hardware. Defaults (Table I): 12 segments of
// 3 KiB each (36 KiB total), 16-byte entries, 5000-instruction timeout,
// 16-cycle register checkpoint.
type Config struct {
	NumSegments      int
	LogBytes         int // total load-store log SRAM across all segments
	EntryBytes       int // bytes consumed per log entry
	TimeoutInstrs    uint64
	CheckpointCycles int64
	MainClock        sim.Clock
	// InterruptInterval > 0 seals segments on a periodic interrupt
	// boundary (§IV-G). Zero disables.
	InterruptInterval sim.Time
	// DelayHistBinNS and DelayHistBins shape the detection-delay
	// histogram (paper Fig. 8 plots 0-5000 ns).
	DelayHistBinNS float64
	DelayHistBins  int
}

// DefaultConfig matches the paper's Table I detection parameters.
func DefaultConfig(mainClock sim.Clock) Config {
	return Config{
		NumSegments:      12,
		LogBytes:         36 * 1024,
		EntryBytes:       16,
		TimeoutInstrs:    5000,
		CheckpointCycles: 16,
		MainClock:        mainClock,
		DelayHistBinNS:   50,
		DelayHistBins:    100, // 0-5000 ns binned; tail kept exact
	}
}

// SegmentEntries reports the per-segment entry capacity.
func (c Config) SegmentEntries() int {
	return c.LogBytes / c.NumSegments / c.EntryBytes
}

// Stats aggregates detection-side counters.
type Stats struct {
	Checkpoints         uint64
	SealsByReason       [4]uint64 // indexed by SealReason
	SegmentsChecked     uint64
	EntriesLogged       uint64
	InstructionsCovered uint64
	LFUPeak             int // high-water mark of load forwarding unit occupancy
	LFUCaptures         uint64
}

// Detector is the detection architecture controller: it owns the
// partitioned load-store log, keeps the committed register file that
// register checkpoints are copied from, schedules checker cores, and
// runs the strong-induction error-confirmation protocol.
type Detector struct {
	cfg      Config
	capacity int

	segs     []*Segment
	checkers []Checker
	cur      int

	// committed is the architectural register file and PC as of the last
	// committed instruction: each commit writes the instruction's
	// destination values and next PC, as the main core produced them
	// (after any fault hook), so a checkpoint reflects the committed
	// boundary even though the trace oracle runs ahead. nextSeq is the
	// dynamic instruction number the next commit must carry.
	committed isa.ArchRegs
	nextSeq   uint64

	startRegs     isa.ArchRegs
	startSeq      uint64
	instrsInCur   uint64
	pendingSeal   bool
	pendingReason SealReason
	nextInterrupt sim.Time
	segSeq        uint64
	finished      bool

	lfu lfu

	// Strong-induction confirmation state. resultPool recycles the
	// per-segment CheckResult boxes drained by the confirmation loop.
	results     map[uint64]*CheckResult
	resultPool  []*CheckResult
	nextConfirm uint64
	firstError  *ErrorReport
	allErrors   []*ErrorReport

	Delay *stats.Hist // detection delay per load/store, in nanoseconds

	// OnFirstError, when set, is called once, as the first error is
	// confirmed. Confirmation runs in segment order, so that error, its
	// kind and its time are final from then on.
	OnFirstError func()

	stats Stats
}

var _ ResultSink = (*Detector)(nil)

// New builds a detector. initRegs is the architectural start state (seed
// of the first checkpoint). Checker cores are attached afterwards with
// AttachCheckers (they need the detector as their result sink, so
// construction is two-phase).
func New(cfg Config, initRegs isa.ArchRegs) *Detector {
	if cfg.NumSegments <= 0 {
		panic("core: need at least one segment")
	}
	if cfg.SegmentEntries() < 2 {
		panic("core: segment capacity below one macro-op")
	}
	d := &Detector{
		cfg:         cfg,
		capacity:    cfg.SegmentEntries(),
		results:     make(map[uint64]*CheckResult),
		nextConfirm: 1,
		committed:   initRegs,
		nextSeq:     1,
		startRegs:   initRegs,
		startSeq:    1,
		Delay:       stats.NewHist(cfg.DelayHistBinNS, cfg.DelayHistBins),
		lfu:         lfu{inFlight: make([]uint64, 0, 32)},
	}
	d.segs = make([]*Segment, cfg.NumSegments)
	for i := range d.segs {
		d.segs[i] = &Segment{Index: i, State: SegFree, Entries: make([]LogEntry, 0, d.capacity)}
	}
	d.segs[0].State = SegFilling
	if cfg.InterruptInterval > 0 {
		d.nextInterrupt = cfg.InterruptInterval
	}
	return d
}

// AttachCheckers hands the detector its checker-core pool, one per log
// segment (§IV-D: one-to-one mapping, no arbitration).
func (d *Detector) AttachCheckers(checkers []Checker) {
	if len(checkers) != d.cfg.NumSegments {
		panic(fmt.Sprintf("core: %d checkers for %d segments", len(checkers), d.cfg.NumSegments))
	}
	d.checkers = checkers
}

// Stats returns a copy of the counters, with the LFU peak folded in.
func (d *Detector) Stats() Stats {
	s := d.stats
	s.LFUPeak = d.lfu.peak
	return s
}

func (d *Detector) checkpointStall() sim.Time {
	return d.cfg.MainClock.Duration(d.cfg.CheckpointCycles)
}

func entriesNeeded(di *isa.DynInst) int {
	n := int(di.NMem)
	if di.HasNonDet {
		n++
	}
	return n
}

// TryCommit implements the commit gate (see ooo.CommitGate). The order of
// operations per the paper's Fig. 6: if the current segment cannot accept
// the instruction's entries (or a seal is pending from a timeout or
// interrupt), the segment is sealed first — which requires the next
// buffer to be free, otherwise the main core stalls (§IV-D) — and the
// register checkpoint charges a commit pause (§VI-A).
func (d *Detector) TryCommit(di *isa.DynInst, now sim.Time) (sim.Time, bool) {
	if d.finished {
		panic("core: commit after Finish")
	}
	if d.cfg.InterruptInterval > 0 && now >= d.nextInterrupt {
		if d.instrsInCur > 0 {
			d.pendingSeal = true
			d.pendingReason = SealInterrupt
		}
		for now >= d.nextInterrupt {
			d.nextInterrupt += d.cfg.InterruptInterval
		}
	}

	need := entriesNeeded(di)
	cur := d.segs[d.cur]
	var stall sim.Time
	if d.pendingSeal || need > d.capacity-len(cur.Entries) {
		next := d.segs[(d.cur+1)%len(d.segs)]
		if next.State != SegFree {
			return 0, false // all log segments busy: stall the main core
		}
		reason := SealCapacity
		if d.pendingSeal {
			reason = d.pendingReason
		}
		stall = d.seal(reason, now)
	}

	d.retire(di)

	cur = d.segs[d.cur]
	base := len(cur.Entries)
	for i := uint8(0); i < di.NMem; i++ {
		m := &di.Mem[i]
		kind := EntryLoad
		if m.IsStore {
			kind = EntryStore
		}
		cur.Entries = append(cur.Entries, LogEntry{
			Kind: kind, Addr: m.Addr, Val: m.Val, Size: m.Size,
			Seq: di.Seq, CommitTime: now,
		})
	}
	if di.HasNonDet {
		cur.Entries = append(cur.Entries, LogEntry{
			Kind: EntryNonDet, Val: di.NonDetVal, Seq: di.Seq, CommitTime: now,
		})
	}
	d.stats.EntriesLogged += uint64(len(cur.Entries) - base)
	d.instrsInCur++
	d.stats.InstructionsCovered++
	d.lfu.commit(di)

	if d.instrsInCur >= d.cfg.TimeoutInstrs && !d.pendingSeal {
		d.pendingSeal = true
		d.pendingReason = SealTimeout
	}
	return stall, true
}

// OnLoadData implements the load forwarding unit capture (see
// ooo.CommitGate): loads are duplicated when their value arrives from the
// cache, tagged by their in-flight identity (§IV-C).
func (d *Detector) OnLoadData(di *isa.DynInst, at sim.Time) {
	d.lfu.capture(di)
	d.stats.LFUCaptures++
}

// retire writes the committing instruction's results into the committed
// register file. The commit stream must continue exactly where the last
// commit left off; anything else is a simulator bug, not a modelled
// fault (a control-flow fault moves NextPC, and the stream follows it).
func (d *Detector) retire(di *isa.DynInst) {
	if di.Seq != d.nextSeq || di.PC != d.committed.PC {
		panic(fmt.Sprintf("core: commit stream broken: seq %d pc %#x, want seq %d pc %#x",
			di.Seq, di.PC, d.nextSeq, d.committed.PC))
	}
	for i, r := range di.Ops.Dsts() {
		if r.FP {
			d.committed.F[r.Idx] = di.DstVal[i]
		} else {
			d.committed.X[r.Idx] = di.DstVal[i]
		}
	}
	d.committed.PC = di.NextPC
	d.nextSeq++
}

// seal closes the current segment, takes the end register checkpoint from
// the committed register file, hands the segment to its checker core, and
// advances to the next buffer. It returns the checkpoint commit pause.
func (d *Detector) seal(reason SealReason, now sim.Time) sim.Time {
	cur := d.segs[d.cur]
	d.segSeq++
	stall := d.checkpointStall()
	cur.SeqNo = d.segSeq
	cur.StartRegs = d.startRegs
	cur.EndRegs = d.committed
	cur.StartSeq = d.startSeq
	cur.InstCount = d.instrsInCur
	cur.Reason = reason
	cur.State = SegReady
	cur.SealedAt = now + stall

	d.stats.Checkpoints++
	d.stats.SealsByReason[reason]++

	// Mark checking before handing over: an infinitely fast checker may
	// report completion synchronously from StartCheck.
	cur.State = SegChecking
	d.checkers[cur.Index].StartCheck(cur, now+stall)

	d.startRegs = cur.EndRegs
	d.startSeq += d.instrsInCur
	d.instrsInCur = 0
	d.pendingSeal = false
	d.cur = (d.cur + 1) % len(d.segs)
	nxt := d.segs[d.cur]
	if nxt.State != SegFree {
		panic("core: advancing into a non-free segment")
	}
	nxt.State = SegFilling
	nxt.Entries = nxt.Entries[:0]
	return stall
}

// Finish seals the final partial segment once the main core has drained
// (§IV-H: termination is held back until the checker cores finish). It is
// idempotent.
func (d *Detector) Finish(now sim.Time) {
	if d.finished {
		return
	}
	d.finished = true
	if d.instrsInCur > 0 {
		// The final seal targets the current buffer's own checker, which
		// is idle by the 1:1 invariant; no free next buffer is needed.
		d.sealFinal(now)
	} else {
		d.segs[d.cur].State = SegFree
	}
}

func (d *Detector) sealFinal(now sim.Time) {
	cur := d.segs[d.cur]
	d.segSeq++
	cur.SeqNo = d.segSeq
	cur.StartRegs = d.startRegs
	cur.EndRegs = d.committed
	cur.StartSeq = d.startSeq
	cur.InstCount = d.instrsInCur
	cur.Reason = SealFinish
	cur.State = SegChecking
	cur.SealedAt = now + d.checkpointStall()
	d.stats.Checkpoints++
	d.stats.SealsByReason[SealFinish]++
	d.checkers[cur.Index].StartCheck(cur, cur.SealedAt)
	d.instrsInCur = 0
}

// AllChecked reports whether every sealed segment has been validated and
// confirmation has caught up (the point at which §IV-H releases program
// termination).
func (d *Detector) AllChecked() bool {
	if !d.finished {
		return false
	}
	for _, s := range d.segs {
		if s.State == SegReady || s.State == SegChecking {
			return false
		}
	}
	return d.nextConfirm > d.segSeq
}

// SegmentChecked implements ResultSink: a checker core finished its
// segment. Results may arrive out of order; confirmation advances in
// segment order so the first confirmed error is provably the first error
// (strong induction: "if an error is detected within a check, we do not
// know if it was the first error until all previous checks complete").
func (d *Detector) SegmentChecked(seg *Segment, res CheckResult) {
	d.stats.SegmentsChecked++
	var r *CheckResult
	if n := len(d.resultPool); n > 0 {
		r = d.resultPool[n-1]
		d.resultPool = d.resultPool[:n-1]
	} else {
		r = new(CheckResult)
	}
	*r = res
	d.results[seg.SeqNo] = r
	seg.State = SegFree
	if r.Err != nil {
		d.allErrors = append(d.allErrors, r.Err)
	}
	for {
		next, ok := d.results[d.nextConfirm]
		if !ok {
			break
		}
		if next.Err != nil && d.firstError == nil {
			next.Err.Confirmed = true
			d.firstError = next.Err
			if d.OnFirstError != nil {
				d.OnFirstError()
			}
		}
		delete(d.results, d.nextConfirm)
		d.resultPool = append(d.resultPool, next)
		d.nextConfirm++
	}
}

// EntryChecked implements ResultSink: one log entry was validated by a
// checker at time at; record the store-commit-to-check delay (paper
// Figs. 8, 11, 12).
func (d *Detector) EntryChecked(e *LogEntry, at sim.Time) {
	d.Delay.Add(at - e.CommitTime)
}

// FirstError returns the confirmed first error, or nil if none (yet).
func (d *Detector) FirstError() *ErrorReport { return d.firstError }

// Errors returns every error any checker reported (confirmed or not);
// under over-detection (§IV-I) there may be several.
func (d *Detector) Errors() []*ErrorReport { return d.allErrors }

// Segments exposes the segment array for tests and inspection.
func (d *Detector) Segments() []*Segment { return d.segs }

// TelemetryFill writes the detector's contribution into a telemetry
// sample: filling-segment occupancy, segments under check, and the
// cumulative checkpoint/log-entry counters. Called only at sample
// time (never on the per-instruction path).
func (d *Detector) TelemetryFill(s *telemetry.Sample) {
	s.SegEntries = len(d.segs[d.cur].Entries)
	s.SegCapacity = d.capacity
	checking := 0
	for _, seg := range d.segs {
		if seg.State == SegChecking {
			checking++
		}
	}
	s.SegsChecking = checking
	s.Checkpoints = d.stats.Checkpoints
	s.EntriesLogged = d.stats.EntriesLogged
}

// lfu models the load forwarding unit (§IV-C): a table as large as the
// reorder buffer into which load values are duplicated as soon as they
// arrive from the cache, tagged by ROB identity, and drained to the
// load-store log at commit. Because it is provisioned at ROB size it can
// never overflow; mis-speculated entries are simply overwritten when the
// ROB entry is reallocated. Here it is occupancy bookkeeping: the
// functional duplication is inherent in the DynInst record, which is
// snapshotted at execute time, before any later corruption of the
// register file can touch it. inFlight holds the dynamic sequence
// numbers captured and not yet committed, in no particular order: at
// most one ROB's worth, usually a handful.
type lfu struct {
	inFlight []uint64
	peak     int
}

func (l *lfu) capture(di *isa.DynInst) {
	l.inFlight = append(l.inFlight, di.Seq)
	if len(l.inFlight) > l.peak {
		l.peak = len(l.inFlight)
	}
}

func (l *lfu) commit(di *isa.DynInst) {
	for i, seq := range l.inFlight {
		if seq == di.Seq {
			last := len(l.inFlight) - 1
			l.inFlight[i] = l.inFlight[last]
			l.inFlight = l.inFlight[:last]
			return
		}
	}
}
