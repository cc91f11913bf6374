// Package core implements the paper's primary contribution: the parallel
// error detection architecture (§IV). It owns the load forwarding unit
// (§IV-C), the partitioned load-store log (§IV-D), architectural register
// checkpoints and the segment lifecycle with timeouts and interrupts
// (§IV-E/G/J), and the strong-induction error-confirmation protocol
// (§IV, §IV-I): each checked segment assumes its start checkpoint correct,
// and an error is only *confirmed* — and attributed as the first error —
// once every earlier segment has checked clean.
package core

import (
	"fmt"

	"paradet/internal/isa"
	"paradet/internal/sim"
)

// EntryKind distinguishes load-store log entry types. Non-deterministic
// instruction results (RDTIME) are "forwarded in a similar way" to loads
// (§IV-D).
type EntryKind uint8

const (
	EntryLoad EntryKind = iota
	EntryStore
	EntryNonDet
)

func (k EntryKind) String() string {
	switch k {
	case EntryLoad:
		return "load"
	case EntryStore:
		return "store"
	default:
		return "nondet"
	}
}

// LogEntry is one record in a load-store log segment: the address and
// value of a committed load or store (or a non-deterministic result),
// against which a checker core validates its re-execution.
type LogEntry struct {
	Kind       EntryKind
	Addr       uint64
	Val        uint64
	Size       uint8
	Seq        uint64   // dynamic instruction number that produced it
	CommitTime sim.Time // when it committed on the main core
}

// SegState is the lifecycle state of one log segment/buffer.
type SegState uint8

const (
	SegFree SegState = iota
	SegFilling
	SegReady
	SegChecking
)

func (s SegState) String() string {
	return [...]string{"free", "filling", "ready", "checking"}[s]
}

// SealReason records why a segment was closed.
type SealReason uint8

const (
	SealCapacity  SealReason = iota // log segment full (§IV-D)
	SealTimeout                     // instruction timeout (§IV-J)
	SealInterrupt                   // interrupt/context-switch boundary (§IV-G)
	SealFinish                      // program end / held-back termination (§IV-H)
)

func (r SealReason) String() string {
	return [...]string{"capacity", "timeout", "interrupt", "finish"}[r]
}

// Segment is one partition of the load-store log plus its bracketing
// register checkpoints. There is a one-to-one mapping between segments
// and checker cores (§IV-D).
type Segment struct {
	Index     int    // buffer/checker index
	SeqNo     uint64 // monotone segment sequence number (1-based)
	Entries   []LogEntry
	StartRegs isa.ArchRegs
	EndRegs   isa.ArchRegs
	StartSeq  uint64 // dynamic seq of the first instruction in the segment
	InstCount uint64 // committed instructions covered
	State     SegState
	Reason    SealReason
	SealedAt  sim.Time
}

// ErrorKind classifies what a checker detected.
type ErrorKind uint8

const (
	ErrLoadAddr      ErrorKind = iota // load address mismatch
	ErrStoreAddr                      // store address mismatch
	ErrStoreValue                     // store value mismatch
	ErrNonDet                         // non-deterministic result mismatch
	ErrKindMix                        // log entry kind mismatch (divergence)
	ErrLogUnderrun                    // checker needed more entries than logged
	ErrLogOverrun                     // entries left unconsumed at segment end
	ErrEndCheckpoint                  // end register checkpoint mismatch
	ErrDivergence                     // control-flow divergence / timeout (§IV-J)
)

func (k ErrorKind) String() string {
	return [...]string{
		"load-addr", "store-addr", "store-value", "nondet",
		"entry-kind", "log-underrun", "log-overrun", "end-checkpoint",
		"divergence",
	}[k]
}

// ErrorReport describes one detected error.
type ErrorReport struct {
	Kind       ErrorKind
	SegSeqNo   uint64
	InstSeq    uint64 // dynamic instruction where the check failed (0 if segment-level)
	Detail     string
	DetectedAt sim.Time
	// Confirmed is set by the detector once all earlier segments checked
	// clean, making this the provably first error (strong induction).
	Confirmed bool
}

func (e *ErrorReport) String() string {
	return fmt.Sprintf("error %s in segment %d (inst %d) at %v: %s",
		e.Kind, e.SegSeqNo, e.InstSeq, e.DetectedAt, e.Detail)
}

// CheckResult is a checker core's verdict on one segment.
type CheckResult struct {
	OK         bool
	Err        *ErrorReport // nil when OK
	FinishedAt sim.Time
	Instrs     uint64
}

// Checker abstracts a checker core from the detector's point of view
// (the concrete implementation lives in internal/inorder).
type Checker interface {
	// StartCheck hands the checker a sealed segment; checking may begin
	// no earlier than `at` (checkpoint copy completion).
	StartCheck(seg *Segment, at sim.Time)
}

// ResultSink receives checker results and per-entry validation events;
// the Detector implements it.
type ResultSink interface {
	SegmentChecked(seg *Segment, res CheckResult)
	EntryChecked(e *LogEntry, at sim.Time)
}
