// Package fault injects soft (transient) and hard (stuck-at) errors on
// the architectural propagation paths the paper enumerates:
//
//   - a computation result in the main core (physical register / ALU
//     output) — caught by a later store-value check or the end-of-segment
//     register checkpoint (§IV, §IV-I);
//   - a load value corrupted after the load forwarding unit captured it
//     (§IV-C's window-of-vulnerability fix) — main core computes with the
//     bad value while the log holds the good one, so checks catch it;
//   - a load value corrupted before duplication (at the cache output) —
//     both copies agree, so the scheme cannot see it: that path is in the
//     ECC-protected memory domain by assumption (§IV-A);
//   - store value and store address corruption — caught directly by the
//     checker's store checks;
//   - control-flow corruption — the checker re-executes the correct path
//     and diverges from the log, or the timeout fires (§IV-J);
//   - errors inside a checker core — reported as errors even though the
//     main computation is fine (over-detection, §IV-I).
//
// Main-core corruption happens once, in the trace oracle's PostExec hook,
// and touches only the first destination register, the next PC and data
// memory. The oracle records the instruction's destination values and
// next PC after the hook, and the detector commits exactly those into
// its register file, so register checkpoints carry the corruption just
// as a real core's committed state would: there is only one main core.
// All corruption is a deterministic function of the dynamic instruction
// number.
package fault

import (
	"fmt"
	"math/rand"

	"paradet/internal/isa"
)

// Target selects the corruption path.
type Target uint8

const (
	// DestReg flips a bit in the value produced by instruction Seq
	// (physical register / ALU output / load result after forwarding).
	DestReg Target = iota
	// LoadPostLFU flips the register copy of a load after the load
	// forwarding unit duplicated it: the log keeps the correct value.
	LoadPostLFU
	// LoadPreLFU flips the loaded value at the cache output, before
	// duplication: both main core and log see the corrupted value.
	// This models a fault in the ECC domain, outside the sphere of
	// detection — the scheme must NOT be expected to catch it.
	LoadPreLFU
	// StoreValue flips the stored data of instruction Seq: memory and
	// the log take the corrupted value; the checker recomputes the
	// correct one.
	StoreValue
	// StoreAddr flips the store address: the store escapes to the wrong
	// location and the log records the wrong address.
	StoreAddr
	// Control flips a bit of the next-PC of instruction Seq: the main
	// core walks the wrong path (or faults).
	Control
	// CheckerReg flips a register inside checker core CheckerID at its
	// Seq-th executed instruction: a false positive source (§IV-I).
	CheckerReg
)

var targetNames = map[Target]string{
	DestReg:     "dest-reg",
	LoadPostLFU: "load-post-lfu",
	LoadPreLFU:  "load-pre-lfu",
	StoreValue:  "store-value",
	StoreAddr:   "store-addr",
	Control:     "control",
	CheckerReg:  "checker-reg",
}

func (t Target) String() string { return targetNames[t] }

// Fault describes one injected error.
type Fault struct {
	Target Target
	// Seq is the dynamic instruction number at which the fault strikes
	// (for CheckerReg: the checker-local executed-instruction index).
	Seq uint64
	// Bit is the flipped bit position (0-63).
	Bit uint8
	// Sticky makes the fault permanent (hard error): the corruption
	// re-applies to every matching instruction from Seq onwards,
	// modelling a stuck-at bit in a register file cell or ALU slice.
	Sticky bool
	// CheckerID selects the victim checker core for CheckerReg.
	CheckerID int
}

func (f Fault) String() string {
	kind := "soft"
	if f.Sticky {
		kind = "hard"
	}
	return fmt.Sprintf("%s fault: %s bit %d at dyn-inst %d", kind, f.Target, f.Bit, f.Seq)
}

// applies reports whether the fault triggers at dynamic instruction seq.
func (f Fault) applies(seq uint64) bool {
	if f.Sticky {
		return seq >= f.Seq
	}
	return seq == f.Seq
}

// Injector applies a set of faults through isa.Machine hooks.
type Injector struct {
	Faults []Fault
	// Struck counts the main-core fault applications that changed
	// state. A fault strikes nothing when its instruction lacks what
	// the target corrupts (a load, a store, a destination register);
	// the run is then exactly the fault-free run.
	Struck uint64
}

// MainHook returns the PostExec hook for the main core's trace oracle.
// What it corrupts reaches the detection hardware only through the
// oracle's DynInst record (destination values, NextPC, memory
// operations), which is what the main core commits.
func (inj *Injector) MainHook() func(*isa.Machine, *isa.DynInst) {
	faults := make([]Fault, 0, len(inj.Faults))
	for _, f := range inj.Faults {
		if f.Target != CheckerReg {
			faults = append(faults, f)
		}
	}
	if len(faults) == 0 {
		return nil
	}
	return func(m *isa.Machine, di *isa.DynInst) {
		for _, f := range faults {
			if f.applies(di.Seq) && applyMain(f, m, di) {
				inj.Struck++
			}
		}
	}
}

// CheckerHook returns the PostExec hook for checker core id, or nil.
// Checker-local instruction indices restart at every segment; the hook
// uses a per-hook counter so Seq counts executed instructions on that
// checker across its lifetime.
func (inj *Injector) CheckerHook(id int) func(*isa.Machine, *isa.DynInst) {
	var faults []Fault
	for _, f := range inj.Faults {
		if f.Target == CheckerReg && f.CheckerID == id {
			faults = append(faults, f)
		}
	}
	if len(faults) == 0 {
		return nil
	}
	var executed uint64
	return func(m *isa.Machine, di *isa.DynInst) {
		executed++
		for _, f := range faults {
			if f.applies(executed) {
				flipDest(m, di, f.Bit)
			}
		}
	}
}

// applyMain performs the architectural corruption for main-core targets
// and reports whether it changed any state.
func applyMain(f Fault, m *isa.Machine, di *isa.DynInst) bool {
	switch f.Target {
	case DestReg:
		return flipDest(m, di, f.Bit)

	case LoadPostLFU:
		if !di.Inst.Op.IsLoad() {
			return false // strikes a non-load: no effect through this path
		}
		// Register copy corrupted; di.Mem (the LFU/log copy) keeps the
		// correct value.
		return flipDest(m, di, f.Bit)

	case LoadPreLFU:
		if !di.Inst.Op.IsLoad() || di.NMem == 0 {
			return false
		}
		// Corrupt both copies: the value was wrong when duplicated.
		di.Mem[0].Val ^= 1 << (uint64(f.Bit) % (8 * uint64b(di.Mem[0].Size)))
		flipDestTo(m, di, di.Mem[0].Val)
		return true

	case StoreValue:
		if !di.Inst.Op.IsStore() || di.NMem == 0 {
			return false
		}
		mo := &di.Mem[0]
		mo.Val ^= 1 << (uint64(f.Bit) % (8 * uint64b(mo.Size)))
		// The corrupted store escaped to memory (§IV-F).
		m.Env.Store(mo.Addr, mo.Size, mo.Val)
		return true

	case StoreAddr:
		if !di.Inst.Op.IsStore() || di.NMem == 0 {
			return false
		}
		mo := &di.Mem[0]
		mo.Addr ^= 1 << (f.Bit % 32) // keep the address mappable
		m.Env.Store(mo.Addr, mo.Size, mo.Val)
		return true

	case Control:
		di.NextPC ^= 1 << (f.Bit % 24)
		return true
	}
	return false
}

func uint64b(size uint8) uint64 {
	if size == 0 {
		return 8
	}
	return uint64(size)
}

// flipDest flips Bit in the first destination register written by di,
// updating the machine's architectural state, and reports whether di
// has one. Instructions without a destination are unaffected (the
// strike lands in unused hardware).
func flipDest(m *isa.Machine, di *isa.DynInst, bit uint8) bool {
	var buf [2]isa.RegRef
	dsts := di.Inst.Dsts(buf[:0])
	if len(dsts) == 0 {
		return false
	}
	d := dsts[0]
	if d.FP {
		m.F[d.Idx] ^= 1 << bit
	} else {
		m.X[d.Idx] ^= 1 << bit
	}
	return true
}

// flipDestTo overwrites the first destination register with v (used when
// the corrupted value is derived from the memory operand).
func flipDestTo(m *isa.Machine, di *isa.DynInst, v uint64) {
	var buf [2]isa.RegRef
	dsts := di.Inst.Dsts(buf[:0])
	if len(dsts) == 0 {
		return
	}
	d := dsts[0]
	if d.FP {
		m.F[d.Idx] = v
	} else {
		m.X[d.Idx] = v
	}
}

// RandomFault draws a random fault over the first maxSeq dynamic
// instructions, uniformly across main-core targets. Deterministic for a
// given rng state.
func RandomFault(r *rand.Rand, maxSeq uint64) Fault {
	targets := []Target{DestReg, LoadPostLFU, StoreValue, StoreAddr, Control}
	return Fault{
		Target: targets[r.Intn(len(targets))],
		Seq:    1 + uint64(r.Int63n(int64(maxSeq))),
		Bit:    uint8(r.Intn(64)),
		Sticky: r.Intn(8) == 0, // ~12% hard faults
	}
}
