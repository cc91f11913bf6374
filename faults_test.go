package paradet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestFaultTargetsMatchesRegistry keeps the hand-maintained
// FaultTargets list in lockstep with targetByName: a new injection
// path must appear in both, or "all"-target campaigns would silently
// skip it.
func TestFaultTargetsMatchesRegistry(t *testing.T) {
	listed := FaultTargets()
	if len(listed) != len(targetByName) {
		t.Fatalf("FaultTargets lists %d targets, registry has %d", len(listed), len(targetByName))
	}
	seen := map[FaultTarget]bool{}
	for _, ft := range listed {
		if !ft.Valid() {
			t.Errorf("FaultTargets lists unknown target %q", ft)
		}
		if seen[ft] {
			t.Errorf("FaultTargets lists %q twice", ft)
		}
		seen[ft] = true
	}
}

// TestInvalidFaultsAreRejected asserts that every scheme that injects
// faults rejects an unknown target, a zero strike point and a bit past
// 63 with an error, not a panic or a silently ignored fault.
func TestInvalidFaultsAreRejected(t *testing.T) {
	p := MustAssemble(faultKernel)
	golden, err := Run(faultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fault{
		{Target: "bogus", Seq: 5},
		{Target: FaultDestReg, Seq: 0},
		{Target: FaultDestReg, Seq: 5, Bit: 64},
	} {
		if s := fmt.Sprint(f); strings.Contains(s, "PANIC") {
			t.Errorf("printing %+v panicked: %s", f, s)
		}
		if _, err := RunWithFaults(faultConfig(), p, []Fault{f}); err == nil {
			t.Errorf("RunWithFaults accepted %+v", f)
		}
		if _, err := RunLockstep(faultConfig(), p, []Fault{f}); err == nil {
			t.Errorf("RunLockstep accepted %+v", f)
		}
		if _, err := ClassifyFault(faultConfig(), p, f, golden); err == nil {
			t.Errorf("ClassifyFault accepted %+v", f)
		}
	}
}

// faultConfig bounds runs: injected faults can corrupt loop counters and
// make the program run forever, which the instruction budget must cap.
func faultConfig() Config {
	cfg := smallConfig()
	cfg.MaxInstrs = 60_000
	return cfg
}

// faultKernel computes a chain where nearly every value feeds stores, so
// single-bit corruption is architecturally visible.

const faultKernel = `
	.equ N, 120
_start:
	la   x1, buf
	movz x2, 1          ; i
	movz x3, 7          ; acc
loop:
	mul  x3, x3, x2
	addi x3, x3, 13
	xor  x3, x3, x2
	strd x3, [x1]
	addi x1, x1, 8
	addi x2, x2, 1
	slti x4, x2, N
	bne  x4, xzr, loop
	mov  x0, x3
	svc
	hlt
	.align 8
buf: .space 1024
`

func TestStoreValueFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultStoreValue, Seq: 40, Bit: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("store-value fault escaped detection")
	}
	if res.FirstError.Kind != "store-value" {
		t.Errorf("detected as %q, want store-value", res.FirstError.Kind)
	}
	if !res.FirstError.Confirmed {
		t.Error("first error must be confirmed by strong induction")
	}
}

func TestStoreAddrFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultStoreAddr, Seq: 40, Bit: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("store-addr fault escaped detection")
	}
	if res.FirstError.Kind != "store-addr" {
		t.Errorf("detected as %q, want store-addr", res.FirstError.Kind)
	}
}

func TestDestRegFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	// Seq 9 is inside the loop body; the corrupted accumulator feeds the
	// next store.
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultDestReg, Seq: 9, Bit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("computation fault escaped detection")
	}
}

func TestLoadPostLFUFaultDetected(t *testing.T) {
	p := MustAssemble(sumLoop) // has a load-dominated reduction loop
	// Find a load: the reduction loop's ldrd runs every 6 instructions
	// after ~1000; strike several candidate seqs and require detection
	// whenever the strike actually hit a load.
	hit := false
	for seq := uint64(1010); seq < 1030; seq++ {
		res, err := RunWithFaults(faultConfig(), p, []Fault{
			{Target: FaultLoadPostLFU, Seq: seq, Bit: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstError != nil {
			hit = true
			break
		}
	}
	if !hit {
		t.Fatal("no post-LFU load fault detected across the strike window")
	}
}

func TestLoadPreLFUFaultIsOutsideSphere(t *testing.T) {
	// Pre-duplication corruption lands in the ECC domain: both the main
	// core and the log see the same wrong value, so the scheme must NOT
	// flag it — and memory is corrupted. This is the paper's motivation
	// for duplicating loads early (§IV-C).
	p := MustAssemble(sumLoop)
	golden, err := Run(faultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	var silent bool
	for seq := uint64(1010); seq < 1030; seq++ {
		rec, err := ClassifyFault(faultConfig(), p, Fault{
			Target: FaultLoadPreLFU, Seq: seq, Bit: 2,
		}, golden)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outcome == OutcomeSilent {
			silent = true
			break
		}
		if rec.Outcome == OutcomeDetected || rec.Outcome == OutcomeOverDetected {
			t.Fatalf("pre-LFU fault impossibly detected: %+v", rec)
		}
	}
	if !silent {
		t.Fatal("expected at least one silent corruption from pre-LFU strikes")
	}
}

func TestControlFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultControl, Seq: 25, Bit: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("control-flow fault escaped detection")
	}
}

func TestHardFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultDestReg, Seq: 30, Bit: 1, Sticky: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("hard (stuck-at) fault escaped detection")
	}
}

func TestCheckerFaultIsOverDetection(t *testing.T) {
	p := MustAssemble(faultKernel)
	golden, err := Run(faultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ClassifyFault(faultConfig(), p, Fault{
		Target: FaultCheckerReg, Seq: 10, Bit: 9, CheckerID: 0,
	}, golden)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != OutcomeOverDetected {
		t.Fatalf("checker-internal fault classified %q, want over-detected", rec.Outcome)
	}
}

func TestFirstErrorOrderingUnderMultipleFaults(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultStoreValue, Seq: 700, Bit: 3},
		{Target: FaultStoreValue, Seq: 40, Bit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("no error detected")
	}
	// The confirmed first error must be the earlier fault's segment.
	for _, e := range res.AllErrors {
		if e.SegmentSeq < res.FirstError.SegmentSeq {
			t.Fatalf("confirmed error in segment %d but an earlier segment %d also failed",
				res.FirstError.SegmentSeq, e.SegmentSeq)
		}
	}
	if res.FirstError.InstSeq > 60 {
		t.Errorf("first error at inst %d, expected near seq 40", res.FirstError.InstSeq)
	}
}

func TestCampaignCoverageIsTotalInsideSphere(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	p := MustAssemble(faultKernel)
	cfg := faultConfig()
	camp, err := RunCampaign(cfg, p, 40, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if n := camp.Counts[OutcomeSilent]; n != 0 {
		for _, r := range camp.Records {
			if r.Outcome == OutcomeSilent {
				t.Errorf("silent corruption: %+v", r.Fault)
			}
		}
		t.Fatalf("%d silent corruptions inside the detection sphere", n)
	}
	if camp.Counts[OutcomeDetected] == 0 {
		t.Fatal("campaign detected nothing; fault sites likely broken")
	}
	if camp.Coverage() != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", camp.Coverage())
	}
}

func TestCampaignIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	p := MustAssemble(faultKernel)
	a, err := RunCampaign(faultConfig(), p, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(faultConfig(), p, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

// TestClassifyMatchesFullRun checks ClassifyFault's shortcuts (a fault
// that strikes nothing is not timed; a run stops timing at its first
// confirmed error) against the reference: a full timed run of the fault
// under the same bound, compared with the unprotected golden. The
// configs make seals and verdict times depend on timing; the faults
// mix every target, hard faults and sites past the run's end.
func TestClassifyMatchesFullRun(t *testing.T) {
	configs := []struct {
		name string
		set  func(*Config)
	}{
		{"tableI", func(*Config) {}},
		{"chk125MHz", func(c *Config) { c.CheckerHz = 125_000_000 }},
		{"irq2000ns", func(c *Config) { c.InterruptIntervalNS = 2000 }},
		{"chk3", func(c *Config) { c.NumCheckers = 3 }},
		{"bigcore", func(c *Config) { c.BigCore = true }},
		{"nullchk", func(c *Config) { c.DisableCheckers = true }},
	}
	r := rand.New(rand.NewSource(17))
	targets := FaultTargets()
	var untouched, detected, full int
	for _, w := range Workloads() {
		p, _, err := LoadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			cfg := DefaultConfig()
			cfg.MaxInstrs = 4_000
			c.set(&cfg)
			golden, err := Run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			base, err := RunUnprotected(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				f := Fault{
					Target: targets[r.Intn(len(targets))],
					// About one site in six lies past the run's end.
					Seq:    1 + uint64(r.Int63n(int64(golden.Instructions*6/5))),
					Bit:    uint8(r.Intn(64)),
					Sticky: r.Intn(5) == 0,
				}
				if f.Target == FaultCheckerReg {
					f.Seq, f.CheckerID = 1+uint64(r.Intn(1000)), r.Intn(2)
				}
				got, err := ClassifyFault(cfg, p, f, golden)
				if err != nil {
					t.Fatalf("%s %s %v: %v", w.Name, c.name, f, err)
				}
				want, res := fullRunRecord(t, cfg, p, f, base)
				if got != want {
					t.Errorf("%s %s: classified %+v, full run %+v", w.Name, c.name, got, want)
				}
				switch {
				case res.FirstError != nil:
					detected++
				case f.Sticky || f.Target == FaultCheckerReg:
					full++
				default:
					fp, _ := planFaults([]Fault{f})
					if fp.strikes(p, cfg.MaxInstrs, f.Seq) {
						full++
					} else {
						untouched++
					}
				}
			}
		}
	}
	t.Logf("%d faults struck nothing, %d stopped at a confirmed error, %d ran in full", untouched, detected, full)
	if untouched == 0 || detected == 0 || full == 0 {
		t.Errorf("every path must be exercised: %d struck nothing, %d detected, %d ran in full", untouched, detected, full)
	}
}

// fullRunRecord is the reference classification of f: a full timed
// run under ClassifyFault's bound, compared with the unprotected golden
// base field by field.
func fullRunRecord(t *testing.T, cfg Config, p *Program, f Fault, base *Result) (FaultRecord, *Result) {
	t.Helper()
	if bound := 2*base.Instructions + 10000; cfg.MaxInstrs == 0 || cfg.MaxInstrs > bound {
		cfg.MaxInstrs = bound
	}
	res, err := RunWithFaults(cfg, p, []Fault{f})
	if err != nil {
		t.Fatalf("full run of %v: %v", f, err)
	}
	corrupted := base.finalMem.FirstDiff(res.finalMem) != "" ||
		!outputsEqual(base.Output, res.Output) ||
		res.ProgFault != base.ProgFault ||
		res.Instructions != base.Instructions
	rec := FaultRecord{Fault: f}
	switch detected := res.FirstError != nil; {
	case detected && corrupted:
		rec.Outcome = OutcomeDetected
	case detected:
		rec.Outcome = OutcomeOverDetected
	case corrupted:
		rec.Outcome = OutcomeSilent
	default:
		rec.Outcome = OutcomeMasked
	}
	if res.FirstError != nil {
		rec.ErrorKind = res.FirstError.Kind
		rec.DetectNS = res.FirstError.DetectedNS
	}
	return rec, res
}
