package paradet

import (
	"fmt"
	"math/rand"

	"paradet/internal/fault"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/trace"
)

// FaultTarget selects a fault-injection path; see internal/fault for the
// architectural meaning of each.
type FaultTarget string

const (
	FaultDestReg     FaultTarget = "dest-reg"
	FaultLoadPostLFU FaultTarget = "load-post-lfu"
	FaultLoadPreLFU  FaultTarget = "load-pre-lfu"
	FaultStoreValue  FaultTarget = "store-value"
	FaultStoreAddr   FaultTarget = "store-addr"
	FaultControl     FaultTarget = "control"
	FaultCheckerReg  FaultTarget = "checker-reg"
)

var targetByName = map[FaultTarget]fault.Target{
	FaultDestReg:     fault.DestReg,
	FaultLoadPostLFU: fault.LoadPostLFU,
	FaultLoadPreLFU:  fault.LoadPreLFU,
	FaultStoreValue:  fault.StoreValue,
	FaultStoreAddr:   fault.StoreAddr,
	FaultControl:     fault.Control,
	FaultCheckerReg:  fault.CheckerReg,
}

// Fault describes one injected error (public mirror of internal/fault).
type Fault struct {
	Target FaultTarget
	// Seq is the dynamic instruction number at which the fault strikes
	// (checker-local index for FaultCheckerReg).
	Seq uint64
	// Bit is the flipped bit (0-63).
	Bit uint8
	// Sticky models a hard (permanent) fault.
	Sticky bool
	// CheckerID is the victim core for FaultCheckerReg.
	CheckerID int
}

// String describes the fault from its public fields, so a fault with
// an unknown target prints too.
func (f Fault) String() string {
	kind := "soft"
	if f.Sticky {
		kind = "hard"
	}
	return fmt.Sprintf("%s fault: %s bit %d at dyn-inst %d", kind, f.Target, f.Bit, f.Seq)
}

// Validate reports whether the fault can be injected: a known target,
// a strike point of at least 1 and a bit of 0-63. Every path that
// takes a fault (runs, classification, campaign fault grids) applies
// it before anything simulates.
func (f Fault) Validate() error {
	switch {
	case !f.Target.Valid():
		return fmt.Errorf("paradet: unknown fault target %q", f.Target)
	case f.Seq == 0:
		return fmt.Errorf("paradet: fault Seq must be >= 1")
	case f.Bit > 63:
		return fmt.Errorf("paradet: fault bit %d out of range (0-63)", f.Bit)
	}
	return nil
}

// Valid reports whether the target names a known injection path.
func (t FaultTarget) Valid() bool {
	_, ok := targetByName[t]
	return ok
}

// FaultTargets lists every injection path in declaration order.
func FaultTargets() []FaultTarget {
	return []FaultTarget{
		FaultDestReg, FaultLoadPostLFU, FaultLoadPreLFU,
		FaultStoreValue, FaultStoreAddr, FaultControl, FaultCheckerReg,
	}
}

// planFaults validates the fault list and compiles it into the hook
// plan the SystemBuilder installs on the oracle, detector and checkers.
func planFaults(faults []Fault) (*faultPlan, error) {
	inj := &fault.Injector{}
	for _, f := range faults {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		inj.Faults = append(inj.Faults, fault.Fault{
			Target: targetByName[f.Target], Seq: f.Seq, Bit: f.Bit, Sticky: f.Sticky, CheckerID: f.CheckerID,
		})
	}
	return &faultPlan{inj: inj, main: inj.MainHook()}, nil
}

// strikes reports whether the plan's main-core hook changes any state
// by dyn-inst seq, stepping the oracle alone over a fresh memory image
// under the run's instruction bound.
func (fp *faultPlan) strikes(p *Program, maxInstrs, seq uint64) bool {
	o := trace.NewOracle(p.prog, mem.NewSparse(), maxInstrs)
	o.M.Hooks.PostExec = fp.main
	var di isa.DynInst
	for o.M.InstCount < seq && o.Next(&di) {
	}
	return fp.inj.Struck > 0
}

// RunWithFaults simulates the protected system with the given faults
// injected.
func RunWithFaults(cfg Config, p *Program, faults []Fault) (*Result, error) {
	return NewSystemBuilder(cfg, p).WithFaults(faults...).Run()
}

// Outcome classifies one fault-injection run.
type Outcome string

const (
	// OutcomeDetected: the fault corrupted architectural state and the
	// detection hardware confirmed an error.
	OutcomeDetected Outcome = "detected"
	// OutcomeOverDetected: an error was reported although the final
	// architectural state is unaffected (§IV-I: dead-register
	// checkpoints, checker-side faults).
	OutcomeOverDetected Outcome = "over-detected"
	// OutcomeMasked: the fault had no architectural effect and no error
	// was reported.
	OutcomeMasked Outcome = "masked"
	// OutcomeSilent: architectural state corrupted with no detection.
	// Must never happen for in-sphere targets; expected for
	// FaultLoadPreLFU, which is in the ECC domain.
	OutcomeSilent Outcome = "SILENT-CORRUPTION"
)

// FaultRecord is the outcome of one injected fault.
type FaultRecord struct {
	Fault     Fault
	Outcome   Outcome
	ErrorKind string  // which check fired, if any
	DetectNS  float64 // absolute detection time
}

// CampaignResult summarises a fault-injection campaign.
type CampaignResult struct {
	Records []FaultRecord
	Counts  map[Outcome]int
	// GoldenInstructions is the fault-free dynamic instruction count the
	// fault sites were drawn from.
	GoldenInstructions uint64
}

// Coverage reports detected / (detected + silent): the fraction of
// state-corrupting faults the scheme caught.
func (c *CampaignResult) Coverage() float64 {
	det := c.Counts[OutcomeDetected]
	sil := c.Counts[OutcomeSilent]
	if det+sil == 0 {
		return 1
	}
	return float64(det) / float64(det+sil)
}

// RunCampaign injects n random faults (drawn deterministically from seed)
// into separate runs of the program and classifies each outcome against a
// fault-free golden run.
func RunCampaign(cfg Config, p *Program, n int, seed int64) (*CampaignResult, error) {
	golden, err := Run(cfg, p)
	if err != nil {
		return nil, fmt.Errorf("paradet: golden run: %w", err)
	}
	if golden.Instructions == 0 {
		return nil, fmt.Errorf("paradet: golden run retired no instructions")
	}

	r := rand.New(rand.NewSource(seed))
	out := &CampaignResult{
		Counts:             make(map[Outcome]int),
		GoldenInstructions: golden.Instructions,
	}
	for i := 0; i < n; i++ {
		inf := fault.RandomFault(r, golden.Instructions)
		f := Fault{
			Target: FaultTarget(inf.Target.String()), Seq: inf.Seq,
			Bit: inf.Bit, Sticky: inf.Sticky, CheckerID: inf.CheckerID,
		}
		rec, err := ClassifyFault(cfg, p, f, golden)
		if err != nil {
			return nil, fmt.Errorf("paradet: fault %d (%v): %w", i, f, err)
		}
		out.Records = append(out.Records, rec)
		out.Counts[rec.Outcome]++
	}
	return out, nil
}

// ClassifyFault runs one fault and classifies its outcome against a
// golden (fault-free, protected) result of Run for the same program and
// configuration. The faulty run stops after twice the golden run's
// instructions plus 10,000, or cfg.MaxInstrs if that is lower, which
// bounds runaway wrong-path execution from control faults.
//
// The faulty run is timed only until its record is decided. A one-shot
// main-core fault whose instruction lacks what its target corrupts
// strikes nothing, which the oracle alone finds out: that run is the
// golden run. Any other run stops timing at its first confirmed error,
// which is final, and runs the program to its end on the oracle alone.
func ClassifyFault(cfg Config, p *Program, f Fault, golden *Result) (FaultRecord, error) {
	if golden.finalMem == nil {
		// Classification diffs committed memory, which only a run in this
		// process carries (it is deliberately not serialized).
		return FaultRecord{}, fmt.Errorf("paradet: golden result has no final memory image; use a freshly simulated protected run")
	}
	if !golden.Protected {
		// The golden run also carries the fault-free verdict.
		return FaultRecord{}, fmt.Errorf("paradet: golden result is unprotected; use a protected run")
	}
	if bound := 2*golden.Instructions + 10000; cfg.MaxInstrs == 0 || cfg.MaxInstrs > bound {
		cfg.MaxInstrs = bound
	}
	b := NewSystemBuilder(cfg, p).WithFaults(f)
	fp, err := b.validate()
	if err != nil {
		return FaultRecord{}, err
	}
	if !f.Sticky && f.Target != FaultCheckerReg && !fp.strikes(p, cfg.MaxInstrs, f.Seq) {
		return classify(f, golden, golden), nil
	}
	s := b.assemble(fp)
	s.untilVerdict = true
	res, err := s.Run()
	if err != nil {
		return FaultRecord{}, err
	}
	return classify(f, golden, res), nil
}

// classify compares a faulted run with the golden run.
func classify(f Fault, golden, res *Result) FaultRecord {
	corrupted := golden.finalMem.FirstDiff(res.finalMem) != "" ||
		!outputsEqual(golden.Output, res.Output) ||
		res.ProgFault != golden.ProgFault ||
		res.Instructions != golden.Instructions

	detected := res.FirstError != nil
	rec := FaultRecord{Fault: f}
	switch {
	case detected && corrupted:
		rec.Outcome = OutcomeDetected
	case detected:
		rec.Outcome = OutcomeOverDetected
	case corrupted:
		rec.Outcome = OutcomeSilent
	default:
		rec.Outcome = OutcomeMasked
	}
	if detected {
		rec.ErrorKind = res.FirstError.Kind
		rec.DetectNS = res.FirstError.DetectedNS
	}
	return rec
}

func outputsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
