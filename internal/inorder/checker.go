// Package inorder models the small in-order checker cores (§IV-B, Fig. 4):
// a short 4-stage single-issue pipeline with a private L0 instruction
// cache and a shared checker L1 instruction cache, no data cache (all data
// comes from the load-store log segment, read sequentially), re-executing
// one segment of the main core's committed instruction stream between two
// register checkpoints and validating every load address, store address
// and store value against the log, and the end register checkpoint.
package inorder

import (
	"fmt"

	"paradet/internal/core"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/sim"
)

// Config parameterises a checker core.
type Config struct {
	Clock sim.Clock
	// PipeFillCycles is the pipeline-fill startup cost when a check
	// begins (4-stage pipeline).
	PipeFillCycles int64
	// TakenBranchPenalty in cycles (no branch prediction on the small
	// cores; taken branches redirect a short pipeline).
	TakenBranchPenalty int64
	// Execution latencies (cycles). Single-issue with forwarding:
	// simple ops are CPI 1; long ops block the pipe.
	IntMulLat int64
	IntDivLat int64
	FPALULat  int64
	FPMulLat  int64
	FPDivLat  int64
}

// DefaultConfig returns the checker parameters used by the evaluation:
// 1 GHz in-order cores (Table I), swept 125 MHz-2 GHz in Figs. 9 and 11.
func DefaultConfig(clock sim.Clock) Config {
	return Config{
		Clock:              clock,
		PipeFillCycles:     4,
		TakenBranchPenalty: 2,
		IntMulLat:          2,
		IntDivLat:          24,
		FPALULat:           1, // pipelined FP add with forwarding
		FPMulLat:           2,
		FPDivLat:           16,
	}
}

// Stats aggregates checker activity.
type Stats struct {
	SegmentsChecked uint64
	Instructions    uint64
	Errors          uint64
	BusyTime        sim.Time
	ICacheStalls    uint64
}

// runAheadCap bounds the instructions one activation executes.
const runAheadCap = 256

// Checker is one checker core. It implements sim.Ticker and core.Checker.
//
// Between touches of shared hardware a checker changes only its own
// state: its machine, its environment over an immutable sealed segment,
// its private L0 on a hit, and its own fault hook. So one activation runs
// instructions back to back, each at the time it would have had if every
// instruction were its own activation, and stops only where another
// component could observe it: at an L0 miss (the shared L1I and L2 must
// see the access at its time, in engine order), at the end of the check
// (the detector must see the verdict at its time), or after runAheadCap
// instructions. A checker may therefore have executed past the engine's
// current time.
type Checker struct {
	id     int
	cfg    Config
	icache *mem.Cache // private L0 (behind it the shared checker L1I)
	sink   core.ResultSink
	eng    *sim.Engine

	m   isa.Machine
	env segEnv
	// scratch receives each re-executed instruction's dynamic record; a
	// field keeps the hot Step call from heap-allocating one DynInst per
	// instruction.
	scratch isa.DynInst

	seg       *core.Segment
	startAt   sim.Time
	startedAt sim.Time
	execd     uint64
	curLine   uint64

	// verdict is the finished check's result, held until the activation
	// at its FinishedAt delivers it; concluded marks it valid.
	verdict   core.CheckResult
	concluded bool

	// ranAt holds the times of the nRan instructions the latest
	// activation executed, oldest first, so that a telemetry sample can
	// leave out those that lie after it.
	ranAt [runAheadCap]sim.Time
	nRan  int

	stats Stats
}

var _ core.Checker = (*Checker)(nil)
var _ sim.Ticker = (*Checker)(nil)

// New builds a checker core. It registers itself with the engine in the
// idle state; StartCheck wakes it.
func New(id int, cfg Config, prog *isa.Program, icache *mem.Cache, sink core.ResultSink, eng *sim.Engine) *Checker {
	c := &Checker{id: id, cfg: cfg, icache: icache, sink: sink, eng: eng}
	c.env.sink = sink
	c.m.Prog = prog
	c.m.Env = &c.env
	eng.Add(c, sim.MaxTime)
	return c
}

// Stats returns a copy of the counters.
func (c *Checker) Stats() Stats { return c.stats }

// Hooks exposes the checker machine's instrumentation point so the fault
// injector can model errors within the checker itself (over-detection,
// §IV-I).
func (c *Checker) Hooks() *isa.Hooks { return &c.m.Hooks }

// TelemetrySnapshot reports the checker's contribution to a telemetry
// sample taken at time at, during an activation at that time: whether a
// segment check is in flight, and the cumulative count of re-executed
// instructions whose time is at or before at. Called only at sample
// time.
func (c *Checker) TelemetrySnapshot(at sim.Time) (busy bool, instrs uint64) {
	instrs = c.stats.Instructions
	for i := c.nRan - 1; i >= 0 && c.ranAt[i] > at; i-- {
		instrs--
	}
	return c.seg != nil, instrs
}

// StartCheck implements core.Checker: accept a sealed segment, reset the
// architectural state to the start checkpoint, and wake at `at` plus the
// pipeline-fill cost.
func (c *Checker) StartCheck(seg *core.Segment, at sim.Time) {
	if c.seg != nil {
		panic(fmt.Sprintf("inorder: checker %d started while busy", c.id))
	}
	c.seg = seg
	c.m.Restore(seg.StartRegs)
	c.m.Halted = false
	c.env.reset(seg)
	c.execd = 0
	c.curLine = ^uint64(0)
	c.startAt = at + c.cfg.Clock.Duration(c.cfg.PipeFillCycles)
	c.startedAt = at
	c.eng.Wake(c, c.startAt)
}

// Tick runs the current check ahead from now until the next point
// another component could observe (see Checker) and returns that time.
func (c *Checker) Tick(now sim.Time) (sim.Time, bool) {
	if c.seg == nil {
		return sim.MaxTime, false
	}
	if c.concluded {
		c.deliver()
		return sim.MaxTime, false
	}
	if now < c.startAt {
		return c.startAt, false
	}
	c.nRan = 0
	di := &c.scratch
	for t := now; ; {
		if c.nRan == runAheadCap {
			return t, false
		}
		// Instruction fetch through the L0/L1I hierarchy; a line miss
		// stalls, and reaches shared hardware only in its own activation.
		if line := c.m.PC &^ 63; line != c.curLine {
			if t > now && !c.icache.Holds(line) {
				return t, false
			}
			done := c.icache.Access(line, false, c.m.PC, t)
			c.curLine = line
			if done > t {
				c.stats.ICacheStalls++
				return done, false
			}
		}

		c.env.now = t
		c.env.curSeq = c.seg.StartSeq + c.execd
		stepErr := c.m.Step(di)
		c.execd++
		c.stats.Instructions++
		c.ranAt[c.nRan] = t
		c.nRan++

		switch {
		case stepErr != nil:
			// The checker ran off the instruction stream: control-flow
			// divergence (§IV-J).
			c.fail(t, &core.ErrorReport{
				Kind: core.ErrDivergence, SegSeqNo: c.seg.SeqNo,
				InstSeq: c.seg.StartSeq + c.execd - 1,
				Detail:  stepErr.Error(), DetectedAt: t,
			})
		case c.env.err != nil:
			c.fail(t, c.env.err)
		case c.execd >= c.seg.InstCount:
			c.finalize(t)
		default:
			t += c.cfg.Clock.Duration(c.latencyCycles(di))
			continue
		}
		// The check is over at t; the detector hears of it then.
		if t > now {
			return t, false
		}
		c.deliver()
		return sim.MaxTime, false
	}
}

func (c *Checker) latencyCycles(di *isa.DynInst) int64 {
	op := di.Inst.Op
	switch op.Class() {
	case isa.ClassIntMul:
		return c.cfg.IntMulLat
	case isa.ClassIntDiv:
		return c.cfg.IntDivLat
	case isa.ClassFPALU:
		return c.cfg.FPALULat
	case isa.ClassFPMul:
		return c.cfg.FPMulLat
	case isa.ClassFPDiv:
		return c.cfg.FPDivLat
	case isa.ClassBranch:
		if di.Taken {
			return 1 + c.cfg.TakenBranchPenalty
		}
		return 1
	default:
		// ALU, loads and stores (sequential log access), system: CPI 1.
		return 1
	}
}

// finalize validates end-of-segment conditions: every log entry consumed,
// and the architectural register file equal to the end checkpoint.
func (c *Checker) finalize(now sim.Time) {
	seg := c.seg
	if c.env.pos != len(seg.Entries) {
		c.fail(now, &core.ErrorReport{
			Kind: core.ErrLogOverrun, SegSeqNo: seg.SeqNo,
			Detail: fmt.Sprintf("%d of %d log entries consumed",
				c.env.pos, len(seg.Entries)),
			DetectedAt: now,
		})
		return
	}
	if diff := c.m.Snapshot().Diff(seg.EndRegs); diff != "" {
		c.fail(now, &core.ErrorReport{
			Kind: core.ErrEndCheckpoint, SegSeqNo: seg.SeqNo,
			Detail: diff, DetectedAt: now,
		})
		return
	}
	c.finish(core.CheckResult{OK: true, FinishedAt: now, Instrs: c.execd})
}

func (c *Checker) fail(now sim.Time, err *core.ErrorReport) {
	c.finish(core.CheckResult{OK: false, Err: err, FinishedAt: now, Instrs: c.execd})
}

// finish holds the check's verdict for deliver, which hands it to the
// detector in the activation at its finish time.
func (c *Checker) finish(res core.CheckResult) {
	c.verdict = res
	c.concluded = true
}

func (c *Checker) deliver() {
	seg, res := c.seg, c.verdict
	c.seg = nil
	c.concluded = false
	if !res.OK {
		c.stats.Errors++
	}
	c.stats.SegmentsChecked++
	c.stats.BusyTime += res.FinishedAt - c.startedAt
	c.sink.SegmentChecked(seg, res)
}

// segEnv serves a checker's execution from its load-store log segment:
// loads read the next logged value (validating the address), stores
// validate address and value without touching memory, RDTIME replays the
// logged non-deterministic result. Any mismatch records the first error.
type segEnv struct {
	sink    core.ResultSink
	seg     *core.Segment
	entries []core.LogEntry
	pos     int
	err     *core.ErrorReport
	now     sim.Time
	curSeq  uint64
}

func (e *segEnv) reset(seg *core.Segment) {
	e.seg = seg
	e.entries = seg.Entries
	e.pos = 0
	e.err = nil
}

func (e *segEnv) setErr(kind core.ErrorKind, detail string) {
	if e.err != nil {
		return
	}
	e.err = &core.ErrorReport{
		Kind: kind, SegSeqNo: e.seg.SeqNo, InstSeq: e.curSeq,
		Detail: detail, DetectedAt: e.now,
	}
}

func (e *segEnv) next(kind core.EntryKind) *core.LogEntry {
	if e.pos >= len(e.entries) {
		e.setErr(core.ErrLogUnderrun, fmt.Sprintf("needed %s entry past end of segment", kind))
		return nil
	}
	ent := &e.entries[e.pos]
	e.pos++
	if ent.Kind != kind {
		e.setErr(core.ErrKindMix, fmt.Sprintf("expected %s entry, log has %s", kind, ent.Kind))
		return nil
	}
	e.sink.EntryChecked(ent, e.now)
	return ent
}

func (e *segEnv) Load(addr uint64, size uint8) uint64 {
	ent := e.next(EntryLoadKind)
	if ent == nil {
		return 0
	}
	if ent.Addr != addr || ent.Size != size {
		e.setErr(core.ErrLoadAddr, fmt.Sprintf(
			"load addr %#x/%d, log has %#x/%d", addr, size, ent.Addr, ent.Size))
	}
	return ent.Val
}

func (e *segEnv) Store(addr uint64, size uint8, val uint64) {
	ent := e.next(EntryStoreKind)
	if ent == nil {
		return
	}
	if ent.Addr != addr || ent.Size != size {
		e.setErr(core.ErrStoreAddr, fmt.Sprintf(
			"store addr %#x/%d, log has %#x/%d", addr, size, ent.Addr, ent.Size))
		return
	}
	if ent.Val != val {
		e.setErr(core.ErrStoreValue, fmt.Sprintf(
			"store [%#x] value %#x, log has %#x", addr, val, ent.Val))
	}
}

func (e *segEnv) ReadTime() uint64 {
	ent := e.next(EntryNonDetKind)
	if ent == nil {
		return 0
	}
	return ent.Val
}

func (e *segEnv) Syscall(m *isa.Machine) {}

// Entry-kind aliases keep the env readable.
const (
	EntryLoadKind   = core.EntryLoad
	EntryStoreKind  = core.EntryStore
	EntryNonDetKind = core.EntryNonDet
)
