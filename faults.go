package paradet

import (
	"fmt"
	"math/rand"

	"paradet/internal/fault"
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

func (f Fault) String() string { return f.internal().String() }

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

func (f Fault) internal() fault.Fault {
	t, ok := targetByName[f.Target]
	if !ok {
		panic(fmt.Sprintf("paradet: unknown fault target %q", f.Target))
	}
	return fault.Fault{
		Target: t, Seq: f.Seq, Bit: f.Bit, Sticky: f.Sticky, CheckerID: f.CheckerID,
	}
}

// planFaults validates the fault list and compiles it into the hook
// plan the SystemBuilder installs on the oracle, detector and checkers.
func planFaults(faults []Fault) (*faultPlan, error) {
	inj := &fault.Injector{}
	for _, f := range faults {
		if _, ok := targetByName[f.Target]; !ok {
			return nil, fmt.Errorf("paradet: unknown fault target %q", f.Target)
		}
		if f.Seq == 0 {
			return nil, fmt.Errorf("paradet: fault Seq must be >= 1")
		}
		inj.Faults = append(inj.Faults, f.internal())
	}
	return &faultPlan{main: inj.MainHook(), checker: inj.CheckerHook}, nil
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
	golden, err := RunUnprotected(cfg, p)
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
// golden (fault-free, unprotected) result for the same program and
// configuration. The faulty run stops after twice the golden run's
// instructions plus 10,000, or cfg.MaxInstrs if that is lower, which
// bounds runaway wrong-path execution from control faults.
func ClassifyFault(cfg Config, p *Program, f Fault, golden *Result) (FaultRecord, error) {
	if golden.finalMem == nil {
		// Classification diffs committed memory, which only a run in this
		// process carries (it is deliberately not serialized).
		return FaultRecord{}, fmt.Errorf("paradet: golden result has no final memory image; use a freshly simulated unprotected run")
	}
	if bound := 2*golden.Instructions + 10000; cfg.MaxInstrs == 0 || cfg.MaxInstrs > bound {
		cfg.MaxInstrs = bound
	}
	res, err := RunWithFaults(cfg, p, []Fault{f})
	if err != nil {
		return FaultRecord{}, err
	}
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
	return rec, nil
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
