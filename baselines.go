package paradet

import (
	"fmt"

	"paradet/internal/areapower"
	"paradet/internal/branch"
	"paradet/internal/lockstep"
	"paradet/internal/mem"
	"paradet/internal/ooo"
	"paradet/internal/rmt"
	"paradet/internal/sim"
	"paradet/internal/trace"
)

// BaselineResult reports a lockstep or RMT baseline run.
type BaselineResult struct {
	Scheme       string
	Workload     string
	Cycles       uint64
	Instructions uint64
	IPC          float64
	TimeNS       float64
	// MeanDelayNS is the mean store-commit-to-compare delay.
	MeanDelayNS float64
	MaxDelayNS  float64
	// Detected describes the first divergence under fault injection.
	Detected   bool
	DetectNS   float64
	DetectInfo string
}

// buildMainHierarchy assembles the Table I memory system for a single
// main core, reusing the SystemBuilder's memory construction step (the
// baseline runners and the protected system share one hierarchy shape).
func buildMainHierarchy(mainClk sim.Clock) (l1i, l1d *mem.Cache) {
	m := newMainMemory(mainClk)
	return m.l1i, m.l1d
}

// RunLockstep simulates the program under dual-core lockstep with
// optional fault injection into the primary core.
func RunLockstep(cfg Config, p *Program, faults []Fault) (*BaselineResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fp, err := planFaults(faults)
	if err != nil {
		return nil, err
	}
	mainClk := sim.NewClock(cfg.MainCoreHz)
	eng := sim.NewEngine()
	l1i, l1d := buildMainHierarchy(mainClk)

	img := mem.NewSparse()
	oracle := trace.NewOracle(p.prog, img, cfg.MaxInstrs)
	// Faults strike the primary only: the whole point of lockstep is
	// that the shadow core is physically separate hardware. The hook is
	// nil when no fault targets the main core.
	oracle.M.Hooks.PostExec = fp.main

	cmp := lockstep.NewComparator(p.prog, trace.InitialRegs(p.prog), mainClk.Duration(2))
	ocfg := ooo.NewTableIConfig()
	ocfg.Clock = mainClk
	core := ooo.New(ocfg, oracle, l1i, l1d, branch.New(branch.Config{}), cmp)
	eng.Add(core, 0)
	eng.Run(sim.MaxTime - 1)
	if !core.Done() {
		return nil, fmt.Errorf("paradet: lockstep core failed to drain")
	}

	cs := core.Stats()
	res := &BaselineResult{
		Scheme:       "lockstep",
		Workload:     p.name,
		Cycles:       cs.Cycles,
		Instructions: cs.Instructions,
		IPC:          cs.IPC(),
		TimeNS:       cs.FinishTime.Nanoseconds(),
		MeanDelayNS:  cmp.Delay.Mean(),
		MaxDelayNS:   cmp.Delay.Max(),
	}
	if d := cmp.FirstDivergence(); d != nil {
		res.Detected = true
		res.DetectNS = d.DetectedAt.Nanoseconds()
		res.DetectInfo = d.String()
	}
	return res, nil
}

// RunRMT simulates the program under SMT redundant multithreading: every
// instruction flows through the core twice, contending for the same
// resources.
func RunRMT(cfg Config, p *Program) (*BaselineResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mainClk := sim.NewClock(cfg.MainCoreHz)
	eng := sim.NewEngine()
	l1i, l1d := buildMainHierarchy(mainClk)

	img := mem.NewSparse()
	oracle := trace.NewOracle(p.prog, img, cfg.MaxInstrs)
	dup := &rmt.DupSource{Inner: oracle}
	cmp := rmt.NewComparator()

	ocfg := ooo.NewTableIConfig()
	ocfg.Clock = mainClk
	core := ooo.New(ocfg, dup, l1i, l1d, branch.New(branch.Config{}), cmp)
	eng.Add(core, 0)
	eng.Run(sim.MaxTime - 1)
	if !core.Done() {
		return nil, fmt.Errorf("paradet: rmt core failed to drain")
	}

	cs := core.Stats()
	res := &BaselineResult{
		Scheme:   "rmt",
		Workload: p.name,
		Cycles:   cs.Cycles,
		// Report program instructions, not duplicated micro-work.
		Instructions: cs.Instructions / 2,
		IPC:          cs.IPC() / 2,
		TimeNS:       cs.FinishTime.Nanoseconds(),
		MeanDelayNS:  cmp.Delay.Mean(),
		MaxDelayNS:   cmp.Delay.Max(),
	}
	if d := cmp.FirstDivergence(); d != nil {
		res.Detected = true
		res.DetectNS = d.DetectedAt.Nanoseconds()
		res.DetectInfo = d.String()
	}
	return res, nil
}

// AreaPowerReport is the public mirror of the analytic §VI-B/§VI-C model.
type AreaPowerReport struct {
	Scheme             string
	AddedAreaMM2       float64
	AreaOverhead       float64 // vs the A57-class main core (paper: ~24%)
	AreaOverheadWithL2 float64 // including 1 MiB L2 in the base (paper: ~16%)
	AddedPowerMW       float64
	PowerOverhead      float64 // paper: ~16%
}

func publicReport(r areapower.Report) AreaPowerReport {
	return AreaPowerReport{
		Scheme:             r.Scheme,
		AddedAreaMM2:       r.AddedAreaMM2,
		AreaOverhead:       r.AreaOverhead,
		AreaOverheadWithL2: r.AreaOverheadWithL2,
		AddedPowerMW:       r.AddedPowerMW,
		PowerOverhead:      r.PowerOverhead,
	}
}

// AreaPower returns the analytic overhead estimate for the configured
// detection hardware (paper §VI-B and §VI-C).
func AreaPower(cfg Config) AreaPowerReport {
	return publicReport(areapower.Paradet(
		cfg.NumCheckers,
		float64(cfg.CheckerHz)/1e6,
		float64(cfg.MainCoreHz)/1e6,
		cfg.LogBytes,
	))
}

// AreaPowerLockstep returns the dual-core lockstep estimate.
func AreaPowerLockstep(cfg Config) AreaPowerReport {
	return publicReport(areapower.Lockstep(float64(cfg.MainCoreHz) / 1e6))
}

// AreaPowerRMT returns the RMT estimate given the measured dynamic-work
// ratio (duplicated instructions through one core ≈ 2.0).
func AreaPowerRMT(cfg Config, dynamicWorkRatio float64) AreaPowerReport {
	return publicReport(areapower.RMT(float64(cfg.MainCoreHz)/1e6, dynamicWorkRatio))
}
