// Package lockstep models dual-core lockstep (DCLS) error detection, the
// industry baseline the paper aims to replace (§II-B, §VII-A: Cortex-R
// style). Two identical cores execute the same program a fixed number of
// cycles apart; comparator hardware checks their outputs. Performance
// overhead is negligible (the cores never wait for each other), detection
// latency is a few cycles, but silicon area and energy double — the trade
// the paper's Fig. 1(d) summarises.
//
// The timing run uses one ooo.Core (the two cores are cycle-identical);
// the redundancy is modelled functionally: a shadow architectural machine
// re-executes every committed instruction and the comparator checks store
// addresses/values and the PC stream. Fault injection applies to the
// primary only, so divergence is observable exactly as in real DCLS.
package lockstep

import (
	"fmt"

	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/ooo"
	"paradet/internal/sim"
	"paradet/internal/stats"
)

// Comparator is the DCLS output-compare stage; it implements
// ooo.CommitGate so it sees every committed instruction of the primary.
type Comparator struct {
	// CompareLat is the comparator pipeline depth: detection latency is
	// the delay from a store committing to the compare completing.
	CompareLat sim.Time

	shadow    isa.Machine
	shadowEnv *shadowEnv
	// scratch receives the shadow's dynamic record each compare; a field
	// keeps the hot Step call from heap-allocating one DynInst per
	// instruction.
	scratch isa.DynInst

	// Delay collects commit-to-compare delays (ns) for parity with the
	// paradet delay statistics.
	Delay *stats.Hist

	firstDiverge *Divergence
	compares     uint64
}

// Divergence reports the first output mismatch between the cores.
type Divergence struct {
	Seq        uint64
	Detail     string
	DetectedAt sim.Time
}

func (d *Divergence) String() string {
	return fmt.Sprintf("lockstep divergence at inst %d (%v): %s", d.Seq, d.DetectedAt, d.Detail)
}

type shadowEnv struct {
	mem     *mem.Sparse
	nonDetQ []uint64
}

func (e *shadowEnv) Load(addr uint64, size uint8) uint64 {
	return e.mem.Read(addr, size)
}
func (e *shadowEnv) Store(addr uint64, size uint8, val uint64) {
	e.mem.Write(addr, size, val)
}
func (e *shadowEnv) ReadTime() uint64 {
	// Lockstep cores receive identical non-deterministic inputs by
	// construction (shared bus); replay the primary's value.
	if len(e.nonDetQ) == 0 {
		panic("lockstep: shadow consumed RDTIME with empty queue")
	}
	v := e.nonDetQ[0]
	e.nonDetQ = e.nonDetQ[1:]
	return v
}
func (e *shadowEnv) Syscall(m *isa.Machine) {}

// NewComparator builds the comparator with its shadow core state.
func NewComparator(prog *isa.Program, initRegs isa.ArchRegs, compareLat sim.Time) *Comparator {
	c := &Comparator{
		CompareLat: compareLat,
		Delay:      stats.NewHist(1, 100), // 0-100 ns bins: lockstep delays are tiny
	}
	c.shadowEnv = &shadowEnv{mem: mem.NewSparse()}
	c.shadowEnv.mem.SetBytes(prog.Origin, prog.Image)
	c.shadow.Prog = prog
	c.shadow.Env = c.shadowEnv
	c.shadow.Restore(initRegs)
	return c
}

var _ ooo.CommitGate = (*Comparator)(nil)

// TryCommit implements ooo.CommitGate: step the shadow core and compare
// outputs. Lockstep never stalls the primary.
func (c *Comparator) TryCommit(di *isa.DynInst, now sim.Time) (sim.Time, bool) {
	if c.firstDiverge != nil {
		return 0, true // already diverged; keep draining
	}
	if di.HasNonDet {
		c.shadowEnv.nonDetQ = append(c.shadowEnv.nonDetQ, di.NonDetVal)
	}
	sd := &c.scratch
	if err := c.shadow.Step(sd); err != nil {
		c.diverge(di.Seq, now, fmt.Sprintf("shadow core fault: %v", err))
		return 0, true
	}
	c.compares++
	detectAt := now + c.CompareLat
	if sd.PC != di.PC {
		c.diverge(di.Seq, now, fmt.Sprintf("pc %#x != %#x", di.PC, sd.PC))
		return 0, true
	}
	if sd.NMem != di.NMem {
		c.diverge(di.Seq, now, fmt.Sprintf("memory op count %d != %d", di.NMem, sd.NMem))
		return 0, true
	}
	for i := uint8(0); i < di.NMem; i++ {
		a, b := di.Mem[i], sd.Mem[i]
		if a.IsStore != b.IsStore || a.Addr != b.Addr || a.Val != b.Val || a.Size != b.Size {
			c.diverge(di.Seq, now, fmt.Sprintf(
				"memory op %d: %+v != %+v", i, a, b))
			return 0, true
		}
		if a.IsStore {
			c.Delay.Add(detectAt - now)
		}
	}
	return 0, true
}

// OnLoadData implements ooo.CommitGate; lockstep has no forwarding unit.
func (c *Comparator) OnLoadData(di *isa.DynInst, at sim.Time) {}

func (c *Comparator) diverge(seq uint64, now sim.Time, detail string) {
	c.firstDiverge = &Divergence{Seq: seq, Detail: detail, DetectedAt: now + c.CompareLat}
}

// Divergence returns the first detected mismatch, or nil.
func (c *Comparator) FirstDivergence() *Divergence { return c.firstDiverge }

// Compares reports how many instructions were compared.
func (c *Comparator) Compares() uint64 { return c.compares }
