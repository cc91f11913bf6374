// Package ooo models the high-performance out-of-order main core of the
// paper's system (Table I: 3-wide, 40-entry ROB, 32-entry IQ, 16-entry
// LQ/SQ, 128 int + 128 FP physical registers, 3 int ALUs, 2 FP ALUs, one
// mul/div unit, tournament branch prediction, 3.2 GHz).
//
// The model is trace-driven over the functional oracle: it consumes the
// committed-path dynamic instruction stream and models front-end fetch
// (I-cache + branch prediction; a mispredicted branch blocks fetch until
// it resolves, plus a redirect penalty), rename (physical register free
// lists, ROB/IQ/LQ/SQ occupancy), oldest-first issue with functional-unit
// and memory-port contention, load/store timing through the D-cache with
// exact store-to-load forwarding, and in-order commit. Wrong-path
// instructions are not executed (their cache pollution is not modelled).
//
// The detection hardware attaches at the two points the paper specifies:
// loads are duplicated into the load forwarding unit when their value
// arrives from the cache (§IV-C), and committed instructions pass through
// a commit gate that appends to the load-store log, takes register
// checkpoints (16-cycle commit pause), and stalls the core when every log
// segment is busy (§IV-D).
package ooo

import (
	"math/bits"

	"paradet/internal/branch"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/obs/telemetry"
	"paradet/internal/sim"
)

// TraceSource supplies the committed-path dynamic instruction stream.
type TraceSource interface {
	// Next fills di with the next dynamic instruction. It returns false
	// at end of stream (HLT, program fault, or instruction budget).
	Next(di *isa.DynInst) bool
}

// CommitGate is the detection hardware's hook into the commit stage.
type CommitGate interface {
	// TryCommit is called when di is ready to commit at time now.
	// ok == false means commit must stall this cycle (no free load-store
	// log segment; the paper's "stall the main core until a checker core
	// finishes", §IV-D). stall > 0 is an additional commit pause charged
	// after the instruction commits (register checkpoint, §VI-A).
	TryCommit(di *isa.DynInst, now sim.Time) (stall sim.Time, ok bool)
	// OnLoadData is called when a load's value arrives from the cache
	// and is duplicated into the load forwarding unit (§IV-C).
	OnLoadData(di *isa.DynInst, at sim.Time)
}

// Config parameterises the core. NewTableIConfig gives the paper's values.
type Config struct {
	Clock sim.Clock

	Width       int // fetch/rename/commit width
	ROBEntries  int
	IQEntries   int
	LQEntries   int
	SQEntries   int
	IntPhysRegs int
	FPPhysRegs  int

	IntALUs  int
	FPALUs   int
	MulDivs  int
	MemPorts int

	FetchQueue     int
	RedirectCycles int // front-end refill after a branch redirect

	// Latencies in cycles by execution class.
	IntALULat int
	IntMulLat int
	IntDivLat int
	FPALULat  int
	FPMulLat  int
	FPDivLat  int
	BranchLat int
	StoreLat  int
	SystemLat int
	FwdLat    int // store-to-load forwarding
}

// NewTableIConfig returns the paper's main-core configuration.
func NewTableIConfig() Config {
	return Config{
		Clock:          sim.NewClock(3_200_000_000),
		Width:          3,
		ROBEntries:     40,
		IQEntries:      32,
		LQEntries:      16,
		SQEntries:      16,
		IntPhysRegs:    128,
		FPPhysRegs:     128,
		IntALUs:        3,
		FPALUs:         2,
		MulDivs:        1,
		MemPorts:       2,
		FetchQueue:     12,
		RedirectCycles: 3,
		IntALULat:      1,
		IntMulLat:      3,
		IntDivLat:      20,
		FPALULat:       3,
		FPMulLat:       4,
		FPDivLat:       15,
		BranchLat:      1,
		StoreLat:       1,
		SystemLat:      1,
		FwdLat:         1,
	}
}

// NewBigCoreConfig returns an aggressive main core for the paper's §VI-D
// discussion: twice the width and window of Table I at 4 GHz. Such cores
// gain only sublinear single-thread performance, so the (linearly
// scaling) checker pool shrinks as a relative overhead.
func NewBigCoreConfig() Config {
	cfg := NewTableIConfig()
	cfg.Clock = sim.NewClock(4_000_000_000)
	cfg.Width = 6
	cfg.ROBEntries = 192
	cfg.IQEntries = 96
	cfg.LQEntries = 48
	cfg.SQEntries = 48
	cfg.IntPhysRegs = 256
	cfg.FPPhysRegs = 256
	cfg.IntALUs = 4
	cfg.FPALUs = 3
	cfg.MulDivs = 2
	cfg.MemPorts = 3
	cfg.FetchQueue = 24
	return cfg
}

// Stats aggregates core performance counters.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	MicroOps     uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
	FinishTime   sim.Time
	// Stall accounting (cycles of the respective condition at commit).
	LogFullStallCycles uint64
	CheckpointStall    sim.Time
	FetchStallICache   uint64
	RenameStallCycles  uint64
}

// IPC reports committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// noWaiter terminates a producer's waiter list.
const noWaiter = int32(-1)

// robEntry is one reorder-buffer slot. Instead of re-scanning every
// window entry's sources each cycle, the window uses SupraX-style
// ready/wakeup tracking: at rename a consumer either snapshots an
// already-issued producer's completion time into readyAt, or links
// itself onto the producer's waiter list; when the producer issues it
// walks that list, folding its completion time into each consumer's
// readyAt and marking consumers with no outstanding producers ready.
type robEntry struct {
	di          isa.DynInst
	id          uint64
	issued      bool
	completeAt  sim.Time
	mispredict  bool
	inIQ        bool
	pendingDeps int8     // producers not yet issued
	readyAt     sim.Time // max completion time over issued producers
	firstWaiter int32    // head of this entry's waiter list (consumer idx<<2 | dep slot)
	nextWaiter  [3]int32 // per-dep-slot link in a producer's waiter list
}

// Core is the out-of-order main core timing model. It implements
// sim.Ticker; one Tick is one core cycle.
type Core struct {
	cfg    Config
	trace  TraceSource
	icache *mem.Cache
	dcache *mem.Cache
	bp     *branch.Predictor
	gate   CommitGate // may be nil (unprotected baseline)

	// Front end. The fetch queue lives in the window's backing array:
	// its fqLen instructions sit in the slots of the ids rename will give
	// them, tailID onwards, so the trace source writes each record
	// straight into the slot it commits from and it is never copied.
	// pendingValid means the next slot holds an instruction taken from
	// the trace but not yet enqueued (its I-cache line is still being
	// fetched).
	fqLen         int
	pendingValid  bool
	traceDone     bool
	curFetchLine  uint64
	fetchStallTil sim.Time
	blockedOnSeq  uint64 // dynamic Seq of the unresolved mispredicted branch

	// Window. The backing array holds cfg.ROBEntries plus the fetch
	// queue, rounded up to a power of two so the id -> slot mapping is a
	// mask, not a division; the logical capacity stays cfg.ROBEntries.
	rob            []robEntry
	robMask        uint64
	headID, tailID uint64                       // ids are 1-based; index = id & robMask
	regMap         [2][2][isa.NumIntRegs]uint64 // [thread][int,fp] arch reg -> producer rob id
	ready          []uint64                     // bitmap over rob slots: dispatched, unissued, no pending producers
	storeQ         []uint64                     // in-flight leading-thread store ids, program order (ring)
	sqHead         int
	sqLen          int
	iqCount        int
	lqCount        int
	sqCount        int
	intRegsFree    int
	fpRegsFree     int

	// Execution resources (non-pipelined units' busy horizon).
	mulDivBusyTil sim.Time
	fpDivBusyTil  sim.Time

	// Commit.
	commitBlockedTil sim.Time

	// Dead-cycle skipping. active records that this cycle changed
	// anything (committed, issued, renamed, fetched, touched a cache) or
	// that the commit gate refused; nextReady is the earliest future
	// readyAt among ready entries seen by this cycle's issue scan.
	active    bool
	nextReady sim.Time

	// Telemetry. probeNext is the committed-instruction count at which
	// the next sample fires; with no probe attached it is MaxUint64, so
	// the disabled cost on the commit path is a single compare that
	// never takes the branch.
	probe     *telemetry.Probe
	probeNext uint64

	stats Stats
	done  bool
}

// New builds a core over the given trace and memory-side ports.
func New(cfg Config, trace TraceSource, icache, dcache *mem.Cache, bp *branch.Predictor, gate CommitGate) *Core {
	if cfg.Width <= 0 || cfg.ROBEntries <= 0 {
		panic("ooo: invalid config")
	}
	robLen := 1
	for robLen < cfg.ROBEntries+cfg.FetchQueue {
		robLen <<= 1
	}
	return &Core{
		cfg:         cfg,
		trace:       trace,
		icache:      icache,
		dcache:      dcache,
		bp:          bp,
		gate:        gate,
		rob:         make([]robEntry, robLen),
		robMask:     uint64(robLen - 1),
		ready:       make([]uint64, (robLen+63)/64),
		storeQ:      make([]uint64, robLen),
		headID:      1,
		tailID:      1,
		intRegsFree: cfg.IntPhysRegs - isa.NumIntRegs,
		fpRegsFree:  cfg.FPPhysRegs - isa.NumFPRegs,
		probeNext:   ^uint64(0),
	}
}

// AttachProbe arms interval telemetry sampling: every p.Interval()
// committed instructions the core records a telemetry.Sample. A nil
// probe disarms sampling. Must be called before the first Tick.
func (c *Core) AttachProbe(p *telemetry.Probe) {
	c.probe = p
	if p == nil {
		c.probeNext = ^uint64(0)
		return
	}
	c.probeNext = p.Interval()
}

// probeSample records one telemetry sample at the current committed-
// instruction boundary. Core-visible fields are filled here; detector
// and checker-cluster fields are filled by the probe's Extra hook,
// composed by the system builder.
func (c *Core) probeSample(now sim.Time) {
	c.probe.Record(telemetry.Sample{
		Instructions:       c.stats.Instructions,
		Cycles:             c.stats.Cycles,
		TimeNS:             now.Nanoseconds(),
		ROB:                int(c.tailID - c.headID),
		IQ:                 c.iqCount,
		LQ:                 c.lqCount,
		SQ:                 c.sqCount,
		FetchQ:             c.fqLen,
		Branches:           c.stats.Branches,
		Mispredicts:        c.stats.Mispredicts,
		LogFullStallCycles: c.stats.LogFullStallCycles,
		CheckpointStallNS:  c.stats.CheckpointStall.Nanoseconds(),
		ICacheStallCycles:  c.stats.FetchStallICache,
		RenameStallCycles:  c.stats.RenameStallCycles,
	})
	c.probeNext += c.probe.Interval()
}

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Done reports whether the core has drained.
func (c *Core) Done() bool { return c.done }

func (c *Core) entry(id uint64) *robEntry { return &c.rob[id&c.robMask] }

func (c *Core) robFull() bool  { return c.tailID-c.headID >= uint64(c.cfg.ROBEntries) }
func (c *Core) robEmpty() bool { return c.tailID == c.headID }

func (c *Core) setReady(idx uint64)   { c.ready[idx>>6] |= 1 << (idx & 63) }
func (c *Core) clearReady(idx uint64) { c.ready[idx>>6] &^= 1 << (idx & 63) }

// Tick advances the core by one cycle. Stages run commit-first so that a
// single instruction cannot traverse multiple stages in one cycle. After
// a cycle in which nothing happened, the next activation may lie several
// cycles ahead (see skipDead).
func (c *Core) Tick(now sim.Time) (sim.Time, bool) {
	c.stats.Cycles++
	renameStalls, icacheStalls := c.stats.RenameStallCycles, c.stats.FetchStallICache
	c.active = false
	c.commit(now)
	c.issue(now)
	c.rename(now)
	c.fetch(now)
	if c.traceDone && !c.pendingValid && c.fqLen == 0 && c.robEmpty() {
		c.done = true
		c.stats.FinishTime = now
		return 0, true
	}
	next := now + c.cfg.Clock.Period
	if !c.active {
		next = c.skipDead(now, c.stats.RenameStallCycles != renameStalls,
			c.stats.FetchStallICache != icacheStalls)
	}
	return next, false
}

// skipDead is called after a cycle that changed nothing and in which the
// commit gate did not refuse. Every cycle repeats it exactly until the
// earliest pending event — the ROB head completing, a ready entry's
// operands arriving, a divider freeing, a commit pause or fetch stall
// ending — so the core returns the first clock edge at or after that
// event, adding the skipped cycles to Cycles and to each stall counter
// the idle cycle charged. Only core state and time can end the spell:
// the gate is consulted only once the head can commit, and a refusal
// (log full, which a checker may clear at any time) is never skipped.
// Waking early is always safe: that cycle is idle again and skips on.
func (c *Core) skipDead(now sim.Time, renameStalled, icacheStalled bool) sim.Time {
	wake := c.nextReady
	var headDone sim.Time
	if !c.robEmpty() {
		if h := c.entry(c.headID); h.issued {
			headDone = h.completeAt
		}
	}
	for _, t := range [...]sim.Time{headDone, c.mulDivBusyTil, c.fpDivBusyTil, c.commitBlockedTil, c.fetchStallTil} {
		if t > now && t < wake {
			wake = t
		}
	}
	period := c.cfg.Clock.Period
	if wake <= now+period || wake == sim.MaxTime {
		return now + period
	}
	cycles := (wake - now + period - 1) / period // edges up to and including the wake edge
	skipped := uint64(cycles - 1)
	c.stats.Cycles += skipped
	if renameStalled {
		c.stats.RenameStallCycles += skipped
	}
	if icacheStalled {
		c.stats.FetchStallICache += skipped
	}
	return now + cycles*period
}

// ---- Commit ----

func (c *Core) commit(now sim.Time) {
	if now < c.commitBlockedTil {
		return
	}
	budget := c.cfg.Width
	for budget > 0 && !c.robEmpty() {
		e := c.entry(c.headID)
		if !e.issued || now < e.completeAt {
			return
		}
		uops := e.di.Inst.Op.MicroOps()
		if uops > budget && budget < c.cfg.Width {
			return // macro-op does not fit in what is left of this cycle
		}
		if c.gate != nil {
			stall, ok := c.gate.TryCommit(&e.di, now)
			if !ok {
				c.stats.LogFullStallCycles++
				c.active = true // a checker may free a segment at any time
				return
			}
			if stall > 0 {
				c.commitBlockedTil = now + stall
				c.stats.CheckpointStall += stall
			}
		}
		c.retire(e, now)
		c.active = true
		budget -= uops
		c.headID++
		if c.stats.Instructions >= c.probeNext {
			c.probeSample(now)
		}
		if now < c.commitBlockedTil {
			return // checkpoint pause blocks the rest of this cycle too
		}
	}
}

// retire releases resources and performs commit-time side effects.
func (c *Core) retire(e *robEntry, now sim.Time) {
	di := &e.di
	op := di.Inst.Op
	c.stats.Instructions++
	c.stats.MicroOps += uint64(op.MicroOps())

	switch {
	case op.IsLoad():
		c.stats.Loads++
		c.lqCount -= int(di.NMem)
	case op.IsStore():
		c.stats.Stores++
		c.sqCount -= int(di.NMem)
		// Stores access the D-cache at commit through the write buffer;
		// charge cache occupancy without blocking commit. Trailing-thread
		// stores (SMT-RMT) are comparison events, not memory writes.
		if di.Thread == 0 {
			for i := uint8(0); i < di.NMem; i++ {
				c.dcache.Access(di.Mem[i].Addr, true, di.PC, now)
			}
			// Stores commit in program order, so this is the front of
			// the in-flight store index.
			c.sqHead = (c.sqHead + 1) & int(c.robMask)
			c.sqLen--
		}
	}

	if op.IsBranch() {
		c.stats.Branches++
		if e.mispredict {
			c.stats.Mispredicts++
		}
		if di.Thread == 0 {
			if op.IsUncond() {
				c.bp.UpdateIndirect(di.PC, di.NextPC)
			} else {
				c.bp.Update(di.PC, di.Taken, di.NextPC)
			}
		}
	}

	// Free physical registers (freed at commit of the producing
	// instruction itself; slightly optimistic, see package doc).
	for _, d := range di.Ops.Dsts() {
		if d.FP {
			c.fpRegsFree++
		} else {
			c.intRegsFree++
		}
	}
}

// ---- Issue / execute ----

// issueRes carries the per-cycle structural resource budget through the
// ready-bitmap scan.
type issueRes struct {
	intALU   int
	fpALU    int
	mulDiv   int
	memPorts int
}

// issue walks the ready bitmap in circular age order from the head slot.
// Only dispatched, unissued entries whose producers have all issued have
// their bit set; an entry whose readyAt is still in the future, or that
// loses structural arbitration, keeps its bit and is retried next cycle.
func (c *Core) issue(now sim.Time) {
	c.nextReady = sim.MaxTime
	rs := issueRes{
		intALU:   c.cfg.IntALUs,
		fpALU:    c.cfg.FPALUs,
		mulDiv:   c.cfg.MulDivs,
		memPorts: c.cfg.MemPorts,
	}
	n := uint64(len(c.rob))
	start := c.headID & c.robMask
	// Age order on a circular buffer is slots [start, n) then [0, start):
	// the window never exceeds n entries, so ids do not alias.
	c.issueScan(now, start, n, &rs)
	if start != 0 {
		c.issueScan(now, 0, start, &rs)
	}
}

// issueScan visits set ready bits in slot range [lo, hi).
func (c *Core) issueScan(now sim.Time, lo, hi uint64, rs *issueRes) {
	for w := lo >> 6; w<<6 < hi; w++ {
		word := c.ready[w]
		if base := w << 6; base < lo {
			word &= ^uint64(0) << (lo - base)
		}
		if base := w << 6; hi-base < 64 {
			word &= 1<<(hi-base) - 1
		}
		for word != 0 {
			idx := w<<6 + uint64(bits.TrailingZeros64(word))
			word &= word - 1
			c.tryIssue(&c.rob[idx], now, rs)
		}
	}
}

// tryIssue attempts to issue one ready entry, honouring per-cycle
// structural limits exactly as the old oldest-first window scan did.
func (c *Core) tryIssue(e *robEntry, now sim.Time, rs *issueRes) {
	if now < e.readyAt {
		// Sources issued but data not yet available.
		if e.readyAt < c.nextReady {
			c.nextReady = e.readyAt
		}
		return
	}
	op := e.di.Inst.Op
	switch op.Class() {
	case isa.ClassIntALU, isa.ClassNop:
		if rs.intALU == 0 {
			return
		}
		rs.intALU--
		c.complete(e, now, c.cfg.IntALULat)
	case isa.ClassBranch:
		if rs.intALU == 0 {
			return
		}
		rs.intALU--
		c.complete(e, now, c.cfg.BranchLat)
	case isa.ClassIntMul:
		if rs.mulDiv == 0 || now < c.mulDivBusyTil {
			return
		}
		rs.mulDiv--
		c.complete(e, now, c.cfg.IntMulLat)
	case isa.ClassIntDiv:
		if rs.mulDiv == 0 || now < c.mulDivBusyTil {
			return
		}
		rs.mulDiv--
		c.complete(e, now, c.cfg.IntDivLat)
		c.mulDivBusyTil = e.completeAt // divider is not pipelined
	case isa.ClassFPALU:
		if rs.fpALU == 0 {
			return
		}
		rs.fpALU--
		c.complete(e, now, c.cfg.FPALULat)
	case isa.ClassFPMul:
		if rs.fpALU == 0 {
			return
		}
		rs.fpALU--
		c.complete(e, now, c.cfg.FPMulLat)
	case isa.ClassFPDiv:
		if rs.fpALU == 0 || now < c.fpDivBusyTil {
			return
		}
		rs.fpALU--
		c.complete(e, now, c.cfg.FPDivLat)
		c.fpDivBusyTil = e.completeAt
	case isa.ClassLoad:
		if rs.memPorts == 0 {
			return
		}
		doneAt, ok := c.issueLoad(e, now)
		if !ok {
			return
		}
		rs.memPorts--
		c.active = true
		e.issued = true
		e.inIQ = false
		c.iqCount--
		e.completeAt = doneAt
		c.clearReady(e.id & c.robMask)
		c.wake(e)
		if c.gate != nil {
			c.gate.OnLoadData(&e.di, doneAt)
		}
		c.noteResolved(e)
	case isa.ClassStore:
		if rs.memPorts == 0 {
			return
		}
		rs.memPorts--
		c.complete(e, now, c.cfg.StoreLat)
	case isa.ClassSystem:
		c.complete(e, now, c.cfg.SystemLat)
	}
}

func (c *Core) complete(e *robEntry, now sim.Time, latCycles int) {
	c.active = true
	e.issued = true
	e.inIQ = false
	c.iqCount--
	e.completeAt = now + c.cfg.Clock.Duration(int64(latCycles))
	c.clearReady(e.id & c.robMask)
	c.wake(e)
	c.noteResolved(e)
}

// wake walks the just-issued producer's waiter list: each waiting
// consumer folds the producer's completion time into its readyAt, and a
// consumer whose last outstanding producer issued becomes ready.
func (c *Core) wake(e *robEntry) {
	w := e.firstWaiter
	e.firstWaiter = noWaiter
	for w != noWaiter {
		ce := &c.rob[uint64(w)>>2]
		next := ce.nextWaiter[w&3]
		if ce.readyAt < e.completeAt {
			ce.readyAt = e.completeAt
		}
		ce.pendingDeps--
		if ce.pendingDeps == 0 {
			c.setReady(ce.id & c.robMask)
		}
		w = next
	}
}

// noteResolved lifts a fetch block once the offending branch has a known
// resolution time.
func (c *Core) noteResolved(e *robEntry) {
	if e.mispredict && e.di.Seq == c.blockedOnSeq {
		c.fetchStallTil = sim.Max(c.fetchStallTil,
			e.completeAt+c.cfg.Clock.Duration(int64(c.cfg.RedirectCycles)))
		c.blockedOnSeq = 0
	}
}

// issueLoad resolves memory dependences with oracle-exact addresses
// (perfect disambiguation: no dependence mispeculation is modelled).
// It returns the load's completion time, or ok == false if an older
// overlapping store has not produced its data yet.
func (c *Core) issueLoad(e *robEntry, now sim.Time) (sim.Time, bool) {
	if e.di.Thread != 0 {
		// SMT-RMT trailing thread: loads are served from the load value
		// queue filled by the leading thread (Reinhardt & Mukherjee),
		// never from the cache.
		return now + c.cfg.Clock.Duration(int64(c.cfg.FwdLat)), true
	}
	var doneAt sim.Time
	for i := uint8(0); i < e.di.NMem; i++ {
		ld := &e.di.Mem[i]
		if fwd, found, ready := c.forwardFromStore(e.id, ld, now); found {
			if !ready {
				return 0, false
			}
			doneAt = sim.Max(doneAt, fwd)
			continue
		}
		// A pair's first access touches the cache even if its second
		// then waits on a store: that cycle is not dead.
		c.active = true
		doneAt = sim.Max(doneAt, c.dcache.Access(ld.Addr, false, e.di.PC, now))
	}
	return doneAt, true
}

// forwardFromStore finds the youngest older in-flight store overlapping
// the load. found reports a hit; ready reports whether the store's data
// is available, in which case the forwarded completion time is returned.
// The walk covers only the in-flight store index (stores dispatched and
// not yet committed, in program order), youngest first, instead of every
// window entry.
func (c *Core) forwardFromStore(loadID uint64, ld *isa.MemOp, now sim.Time) (at sim.Time, found, ready bool) {
	mask := int(c.robMask)
	for i := c.sqLen - 1; i >= 0; i-- {
		id := c.storeQ[(c.sqHead+i)&mask]
		if id >= loadID {
			continue // store younger than the load
		}
		p := c.entry(id)
		for j := uint8(0); j < p.di.NMem; j++ {
			st := &p.di.Mem[j]
			if overlaps(st.Addr, st.Size, ld.Addr, ld.Size) {
				if !p.issued {
					return 0, true, false
				}
				return sim.Max(now, p.completeAt) + c.cfg.Clock.Duration(int64(c.cfg.FwdLat)), true, true
			}
		}
	}
	return 0, false, false
}

func overlaps(a uint64, an uint8, b uint64, bn uint8) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

// ---- Rename / dispatch ----

func (c *Core) rename(now sim.Time) {
	if now < c.commitBlockedTil {
		// The register checkpoint occupies the register-file ports for
		// its whole copy (two ports, 32 registers, 16 cycles — §VI-A), so
		// rename cannot allocate or read mappings either.
		c.stats.RenameStallCycles++
		return
	}
	budget := c.cfg.Width
	for budget > 0 && c.fqLen > 0 {
		id := c.tailID
		idx := id & c.robMask
		e := &c.rob[idx]
		op := e.di.Inst.Op
		dsts := e.di.Ops.Dsts()
		needInt, needFP := 0, 0
		for _, d := range dsts {
			if d.FP {
				needFP++
			} else {
				needInt++
			}
		}
		nmem := int(e.di.NMem)
		switch {
		case c.robFull(), c.iqCount >= c.cfg.IQEntries,
			needInt > c.intRegsFree, needFP > c.fpRegsFree,
			op.IsLoad() && c.lqCount+nmem > c.cfg.LQEntries,
			op.IsStore() && c.sqCount+nmem > c.cfg.SQEntries:
			c.stats.RenameStallCycles++
			return
		}

		// The record and its mispredict flag are in place since fetch;
		// reset the rest of the slot field by field.
		e.id = id
		e.issued = false
		e.completeAt = 0
		e.inIQ = true
		e.pendingDeps = 0
		e.readyAt = 0
		e.firstWaiter = noWaiter
		e.nextWaiter = [3]int32{noWaiter, noWaiter, noWaiter}
		c.active = true
		thr := int(e.di.Thread)
		for _, s := range e.di.Ops.Srcs() {
			file := 0
			if s.FP {
				file = 1
			}
			if pid := c.regMap[thr][file][s.Idx]; pid != 0 && pid >= c.headID {
				p := c.entry(pid)
				if p.issued {
					// Producer already executing: its completion time is
					// known, fold it in now.
					if e.readyAt < p.completeAt {
						e.readyAt = p.completeAt
					}
				} else {
					// Link onto the producer's waiter list; slot k is this
					// consumer's k-th outstanding producer.
					k := e.pendingDeps
					e.nextWaiter[k] = p.firstWaiter
					p.firstWaiter = int32(idx)<<2 | int32(k)
					e.pendingDeps++
				}
			}
		}
		if e.pendingDeps == 0 {
			c.setReady(idx)
		}
		for _, d := range dsts {
			file := 0
			if d.FP {
				file = 1
				c.fpRegsFree--
			} else {
				c.intRegsFree--
			}
			c.regMap[thr][file][d.Idx] = id
		}
		c.iqCount++
		if op.IsLoad() {
			c.lqCount += nmem
		}
		if op.IsStore() {
			c.sqCount += nmem
			if e.di.Thread == 0 {
				c.storeQ[(c.sqHead+c.sqLen)&int(c.robMask)] = id
				c.sqLen++
			}
		}
		c.tailID++
		c.fqLen--
		budget--
	}
}

// ---- Fetch ----

func (c *Core) fetch(now sim.Time) {
	if c.blockedOnSeq != 0 {
		return // waiting for a mispredicted branch to resolve
	}
	if now < c.fetchStallTil {
		c.stats.FetchStallICache++
		return
	}
	budget := c.cfg.Width
	for budget > 0 && c.fqLen < c.cfg.FetchQueue {
		if !c.pendingValid && c.traceDone {
			return
		}
		c.active = true // reads the trace, accesses the I-cache or enqueues
		e := c.entry(c.tailID + uint64(c.fqLen))
		di := &e.di
		if !c.pendingValid {
			if !c.trace.Next(di) {
				c.traceDone = true
				return
			}
			c.pendingValid = true
		}

		// Instruction cache: a new line access may stall fetch; the
		// access is charged once (the fill continues in the background).
		// The SMT-RMT trailing thread reuses the leading thread's lines.
		line := di.PC &^ 63
		if line != c.curFetchLine && di.Thread == 0 {
			done := c.icache.Access(line, false, di.PC, now)
			c.curFetchLine = line
			if done > now {
				c.fetchStallTil = done
				c.stats.FetchStallICache++
				return
			}
		}

		mispredict, endGroup := false, false
		if di.Inst.Op.IsBranch() && di.Thread != 0 {
			// Trailing-thread branch outcomes are known from the leading
			// thread: no prediction, no redirect.
		} else if di.Inst.Op.IsBranch() {
			mispredict, endGroup = c.predict(di)
			if mispredict {
				c.blockedOnSeq = di.Seq
				c.bp.NoteDirMiss()
			}
		}
		e.mispredict = mispredict
		c.fqLen++
		c.pendingValid = false
		budget--
		if mispredict {
			return
		}
		if endGroup {
			return // taken branches end the fetch group
		}
	}
}

// predict runs the front-end predictors against the architecturally
// correct outcome recorded in the trace. It returns whether the branch is
// mispredicted and whether it ends the fetch group (predicted taken).
func (c *Core) predict(di *isa.DynInst) (mispredict, endGroup bool) {
	in := di.Inst
	switch in.Op {
	case isa.OpJAL:
		// Direct target, known at decode. Calls push the RAS.
		if in.Rd == isa.RegLR {
			c.bp.PushRAS(di.PC + 4)
		}
		return false, true
	case isa.OpJALR:
		if in.Rd == isa.RegLR {
			c.bp.PushRAS(di.PC + 4)
		}
		var target uint64
		var ok bool
		if in.Rd == isa.ZeroReg && in.Rs1 == isa.RegLR {
			target, ok = c.bp.PopRAS()
		}
		if !ok {
			target, ok = c.bp.PredictTarget(di.PC)
		}
		if !ok || target != di.NextPC {
			c.bp.NoteTargetMiss()
			return true, true
		}
		return false, true
	default:
		predTaken := c.bp.PredictDirection(di.PC)
		if predTaken != di.Taken {
			return true, predTaken
		}
		if !di.Taken {
			return false, false
		}
		target, ok := c.bp.PredictTarget(di.PC)
		if !ok || target != di.NextPC {
			c.bp.NoteTargetMiss()
			return true, true
		}
		return false, true
	}
}
