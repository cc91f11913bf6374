package paradet

import (
	"fmt"

	detect "paradet/internal/core"
	"paradet/internal/fault"
	"paradet/internal/isa"
	"paradet/internal/sim"
)

// faultPlan carries the injector and its main-core hook into a run; it
// is produced by the fault API in faults.go.
type faultPlan struct {
	// inj produces the per-checker-core hooks and counts the strikes
	// of main.
	inj *fault.Injector
	// main is installed on the trace oracle; the detector commits what
	// the oracle recorded after it ran.
	main func(*isa.Machine, *isa.DynInst)
}

// Run simulates the program on the protected system (main core + parallel
// error detection) with the given configuration.
func Run(cfg Config, p *Program) (*Result, error) {
	return NewSystemBuilder(cfg, p).Run()
}

// RunUnprotected simulates the program on the bare main core, the
// normalisation baseline of the paper's performance figures.
func RunUnprotected(cfg Config, p *Program) (*Result, error) {
	return NewSystemBuilder(cfg, p).Protected(false).Run()
}

// Slowdown runs the program both ways and reports protected time divided
// by unprotected time (the y-axis of paper Figs. 7, 9, 10, 13), along
// with both results.
func Slowdown(cfg Config, p *Program) (float64, *Result, *Result, error) {
	prot, err := Run(cfg, p)
	if err != nil {
		return 0, nil, nil, err
	}
	base, err := RunUnprotected(cfg, p)
	if err != nil {
		return 0, nil, nil, err
	}
	if base.TimeNS == 0 {
		return 0, prot, base, fmt.Errorf("paradet: zero-length baseline run")
	}
	return prot.TimeNS / base.TimeNS, prot, base, nil
}

// nullChecker completes every check instantly: it isolates the
// checkpoint/log overhead on the main core (paper Fig. 10 measures "the
// slowdown to the system from just checkpointing, without any checker
// core execution").
type nullChecker struct {
	sink detect.ResultSink
}

func (n *nullChecker) StartCheck(seg *detect.Segment, at sim.Time) {
	n.sink.SegmentChecked(seg, detect.CheckResult{OK: true, FinishedAt: at, Instrs: seg.InstCount})
}
