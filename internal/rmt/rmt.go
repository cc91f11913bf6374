// Package rmt models redundant multithreading (AR-SMT / CRT style,
// §II-B, §VII-B): the program runs twice as two SMT threads on the *same*
// out-of-order core, with the trailing thread's loads served from a load
// value queue and its stores checked against the leading thread's. The
// resulting slowdown is large (Mukherjee et al. report ~32%) because both
// copies contend for the same window and functional units — the paper's
// Fig. 1(d) "Performance: Large" row — and hard faults in shared hardware
// are invisible because both copies use the same silicon.
package rmt

import (
	"fmt"

	"paradet/internal/isa"
	"paradet/internal/ooo"
	"paradet/internal/sim"
	"paradet/internal/stats"
)

// DupSource duplicates a trace: each dynamic instruction is emitted first
// as the leading thread (0) then as the trailing thread (1). This models
// ideal SMT slack exploitation: the trailing copy enters the pipeline
// immediately behind the leading one.
type DupSource struct {
	Inner   ooo.TraceSource
	pending isa.DynInst
	hasDup  bool
}

var _ ooo.TraceSource = (*DupSource)(nil)

// Next implements ooo.TraceSource.
func (d *DupSource) Next(di *isa.DynInst) bool {
	if d.hasDup {
		*di = d.pending
		di.Thread = 1
		d.hasDup = false
		return true
	}
	if !d.Inner.Next(di) {
		return false
	}
	di.Thread = 0
	d.pending = *di
	d.hasDup = true
	return true
}

// Comparator pairs leading/trailing commits and checks store outputs; it
// implements ooo.CommitGate. Detection latency is the commit-time gap
// between the two copies (the trailing thread's window residency).
type Comparator struct {
	// Delay collects leading-commit-to-trailing-check delays in ns.
	Delay *stats.Hist

	lead         map[uint64]leadRecord
	firstDiverge *Divergence
	compares     uint64
}

type leadRecord struct {
	mem  [2]isa.MemOp
	nmem uint8
	at   sim.Time
}

// Divergence is the first mismatch between thread copies.
type Divergence struct {
	Seq        uint64
	Detail     string
	DetectedAt sim.Time
}

func (d *Divergence) String() string {
	return fmt.Sprintf("rmt divergence at inst %d (%v): %s", d.Seq, d.DetectedAt, d.Detail)
}

// NewComparator builds the RMT output comparator.
func NewComparator() *Comparator {
	return &Comparator{
		Delay: stats.NewHist(1, 200), // RMT delays are tens of ns at most
		lead:  make(map[uint64]leadRecord),
	}
}

var _ ooo.CommitGate = (*Comparator)(nil)

// TryCommit implements ooo.CommitGate. RMT never stalls commit; the
// performance cost is resource contention, modelled by the core itself.
func (c *Comparator) TryCommit(di *isa.DynInst, now sim.Time) (sim.Time, bool) {
	if di.Thread == 0 {
		c.lead[di.Seq] = leadRecord{mem: di.Mem, nmem: di.NMem, at: now}
		return 0, true
	}
	rec, ok := c.lead[di.Seq]
	if !ok {
		c.diverge(di.Seq, now, "trailing commit without leading record")
		return 0, true
	}
	delete(c.lead, di.Seq)
	c.compares++
	if c.firstDiverge != nil {
		return 0, true
	}
	if rec.nmem != di.NMem {
		c.diverge(di.Seq, now, fmt.Sprintf("memory op count %d != %d", rec.nmem, di.NMem))
		return 0, true
	}
	for i := uint8(0); i < di.NMem; i++ {
		a, b := rec.mem[i], di.Mem[i]
		if a != b {
			c.diverge(di.Seq, now, fmt.Sprintf("memory op %d: %+v != %+v", i, a, b))
			return 0, true
		}
		if a.IsStore {
			c.Delay.Add(now - rec.at)
		}
	}
	return 0, true
}

// OnLoadData implements ooo.CommitGate (the load value queue's timing
// effect is modelled inside the core; nothing to record here).
func (c *Comparator) OnLoadData(di *isa.DynInst, at sim.Time) {}

func (c *Comparator) diverge(seq uint64, now sim.Time, detail string) {
	if c.firstDiverge == nil {
		c.firstDiverge = &Divergence{Seq: seq, Detail: detail, DetectedAt: now}
	}
}

// FirstDivergence returns the first detected mismatch, or nil.
func (c *Comparator) FirstDivergence() *Divergence { return c.firstDiverge }

// Compares reports how many instruction pairs were compared.
func (c *Comparator) Compares() uint64 { return c.compares }
