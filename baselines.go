package paradet

import "paradet/internal/areapower"

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

// RunLockstep simulates the program under dual-core lockstep with
// optional fault injection into the primary core. Faults strike the
// primary only: the whole point of lockstep is that the shadow core is
// physically separate hardware.
func RunLockstep(cfg Config, p *Program, faults []Fault) (*BaselineResult, error) {
	return runBaseline(&SystemBuilder{cfg: cfg, prog: p, scheme: schemeLockstep, faults: faults})
}

// RunRMT simulates the program under SMT redundant multithreading: every
// instruction flows through the core twice, contending for the same
// resources.
func RunRMT(cfg Config, p *Program) (*BaselineResult, error) {
	return runBaseline(&SystemBuilder{cfg: cfg, prog: p, scheme: schemeRMT})
}

// runBaseline runs a lockstep or RMT system and reports its main core
// with its comparator's delays and first divergence.
func runBaseline(b *SystemBuilder) (*BaselineResult, error) {
	s, err := b.Build()
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	out := &BaselineResult{
		Workload:     res.Workload,
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		IPC:          res.IPC,
		TimeNS:       res.TimeNS,
	}
	switch b.scheme {
	case schemeLockstep:
		out.Scheme = "lockstep"
		out.MeanDelayNS, out.MaxDelayNS = s.lockstep.Delay.Mean(), s.lockstep.Delay.Max()
		if d := s.lockstep.FirstDivergence(); d != nil {
			out.Detected, out.DetectNS, out.DetectInfo = true, d.DetectedAt.Nanoseconds(), d.String()
		}
	case schemeRMT:
		// Report program instructions, not duplicated micro-work.
		out.Scheme = "rmt"
		out.Instructions /= 2
		out.IPC /= 2
		out.MeanDelayNS, out.MaxDelayNS = s.rmt.Delay.Mean(), s.rmt.Delay.Max()
		if d := s.rmt.FirstDivergence(); d != nil {
			out.Detected, out.DetectNS, out.DetectInfo = true, d.DetectedAt.Nanoseconds(), d.String()
		}
	}
	return out, nil
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
