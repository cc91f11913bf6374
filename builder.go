package paradet

import (
	"fmt"

	"paradet/internal/branch"
	detect "paradet/internal/core"
	"paradet/internal/inorder"
	"paradet/internal/isa"
	"paradet/internal/lockstep"
	"paradet/internal/mem"
	"paradet/internal/obs/telemetry"
	"paradet/internal/ooo"
	"paradet/internal/rmt"
	"paradet/internal/sim"
	"paradet/internal/trace"
)

// SystemBuilder assembles a simulated system from composable steps:
// memory hierarchy, functional oracle, detection hardware, checker
// cluster and main core. Every scheme the paper compares is built
// here, so they all share one main core and memory hierarchy.
//
//	res, err := paradet.NewSystemBuilder(cfg, prog).Protected(false).Run()
type SystemBuilder struct {
	cfg    Config
	prog   *Program
	scheme scheme
	faults []Fault
	probe  *telemetry.Probe
}

// scheme selects what a System builds around its main core.
type scheme uint8

const (
	// schemeProtected adds parallel error detection: the detector gates
	// commit and checker cores re-execute each segment.
	schemeProtected scheme = iota
	// schemeUnprotected is the bare main core.
	schemeUnprotected
	// schemeLockstep gates commit on a dual-core lockstep comparator.
	schemeLockstep
	// schemeRMT runs every instruction twice through the one core and
	// gates commit on the RMT comparator.
	schemeRMT
)

// NewSystemBuilder starts a builder for the protected system (main core
// plus parallel error detection). Use Protected(false) for the bare
// main core.
func NewSystemBuilder(cfg Config, p *Program) *SystemBuilder {
	return &SystemBuilder{cfg: cfg, prog: p, scheme: schemeProtected}
}

// Protected selects between the protected system and the bare main
// core used as the paper's normalisation baseline.
func (b *SystemBuilder) Protected(on bool) *SystemBuilder {
	b.scheme = schemeUnprotected
	if on {
		b.scheme = schemeProtected
	}
	return b
}

// WithFaults schedules fault injections for the run (see Fault).
func (b *SystemBuilder) WithFaults(faults ...Fault) *SystemBuilder {
	b.faults = append(b.faults, faults...)
	return b
}

// WithTelemetry attaches an interval telemetry probe: the main core
// records a sample every probe interval of committed instructions,
// and the builder extends each sample with detector and checker-
// cluster state when the system is protected. Telemetry is strictly
// out-of-band — it changes no simulation state and no Result field.
// A nil probe is a no-op.
func (b *SystemBuilder) WithTelemetry(p *telemetry.Probe) *SystemBuilder {
	b.probe = p
	return b
}

// Build validates the configuration and assembles the system. The
// returned System is single-use: Run executes it to completion.
func (b *SystemBuilder) Build() (*System, error) {
	fp, err := b.validate()
	if err != nil {
		return nil, err
	}
	return b.assemble(fp), nil
}

// validate checks the configuration and the program, and compiles the
// faults, if any, into the plan assemble installs.
func (b *SystemBuilder) validate() (*faultPlan, error) {
	if err := b.cfg.Validate(); err != nil {
		return nil, err
	}
	if b.prog == nil || b.prog.prog == nil {
		return nil, fmt.Errorf("paradet: nil program")
	}
	if len(b.faults) == 0 {
		return nil, nil
	}
	return planFaults(b.faults)
}

// assemble builds the validated system.
func (b *SystemBuilder) assemble(fp *faultPlan) *System {
	s := &System{cfg: b.cfg, prog: b.prog, scheme: b.scheme, fp: fp}
	s.buildCores()
	s.buildMemoryHierarchy()
	s.buildOracle()
	if s.scheme == schemeProtected {
		s.buildDetector()
		s.buildCheckerCluster()
	}
	s.buildMainCore()
	if b.probe != nil {
		s.attachTelemetry(b.probe)
	}
	return s
}

// Run is Build followed by System.Run.
func (b *SystemBuilder) Run() (*Result, error) {
	s, err := b.Build()
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// mainMemory is the Table I memory system of one main core.
type mainMemory struct {
	dram *mem.DRAM
	l2   *mem.Cache
	l1i  *mem.Cache
	l1d  *mem.Cache
}

// System is one fully assembled simulation, produced by SystemBuilder.
// Run drives it to completion and reports the Result.
type System struct {
	cfg    Config
	prog   *Program
	scheme scheme
	fp     *faultPlan

	eng      *sim.Engine
	mainClk  sim.Clock
	chkClk   sim.Clock
	ocfg     ooo.Config
	memory   *mainMemory
	img      *mem.Sparse
	oracle   *trace.Oracle
	det      *detect.Detector
	checkers []*inorder.Checker
	lockstep *lockstep.Comparator
	rmt      *rmt.Comparator
	mainCore *ooo.Core
	ran      bool

	// untilVerdict stops timing at the first confirmed error (see
	// finishUntimed). Only ClassifyFault sets it: the Result it leaves
	// carries the run's outcome, not its full statistics.
	untilVerdict bool
}

// buildCores resolves the main-core microarchitecture (Table I or the
// aggressive §VI-D big core) and creates the clocks and event engine.
func (s *System) buildCores() {
	s.ocfg = ooo.NewTableIConfig()
	if s.cfg.BigCore {
		s.ocfg = ooo.NewBigCoreConfig()
		s.cfg.MainCoreHz = s.ocfg.Clock.Hz()
	}
	s.mainClk = sim.NewClock(s.cfg.MainCoreHz)
	s.chkClk = sim.NewClock(s.cfg.CheckerHz)
	s.eng = sim.NewEngine()
}

// buildMemoryHierarchy assembles the Table I caches and DRAM.
func (s *System) buildMemoryHierarchy() {
	dram := mem.NewDDR3()
	l2 := mem.NewCache(mem.CacheConfig{
		Name: "L2", SizeBytes: 1 << 20, Ways: 16, LineBytes: 64,
		HitLat: s.mainClk.Duration(12), MSHRs: 16, Prefetch: true,
	}, dram)
	l1i := mem.NewCache(mem.CacheConfig{
		Name: "L1I", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64,
		HitLat: s.mainClk.Duration(2), MSHRs: 6,
	}, l2)
	l1d := mem.NewCache(mem.CacheConfig{
		Name: "L1D", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64,
		HitLat: s.mainClk.Duration(2), MSHRs: 6,
	}, l2)
	s.memory = &mainMemory{dram: dram, l2: l2, l1i: l1i, l1d: l1d}
}

// buildOracle creates the functional model that feeds the out-of-order
// core's trace-driven pipeline, applying any main-core fault hook.
func (s *System) buildOracle() {
	s.img = mem.NewSparse()
	s.oracle = trace.NewOracle(s.prog.prog, s.img, s.cfg.MaxInstrs)
	if s.fp != nil && s.fp.main != nil {
		s.oracle.M.Hooks.PostExec = s.fp.main
	}
}

// buildDetector creates the load-store log, checkpoint and segment
// machinery of §IV.
func (s *System) buildDetector() {
	dcfg := detect.Config{
		NumSegments:       s.cfg.NumCheckers,
		LogBytes:          s.cfg.LogBytes,
		EntryBytes:        s.cfg.EntryBytes,
		TimeoutInstrs:     s.cfg.TimeoutInstrs,
		CheckpointCycles:  s.cfg.CheckpointCycles,
		MainClock:         s.mainClk,
		InterruptInterval: sim.Time(s.cfg.InterruptIntervalNS) * sim.Nanosecond,
		DelayHistBinNS:    50,
		DelayHistBins:     100,
	}
	s.det = detect.New(dcfg, trace.InitialRegs(s.prog.prog))
}

// buildCheckerCluster attaches the checker-core pool to the detector:
// either the paper's in-order cores behind the shared instruction-cache
// cluster of Fig. 4, or instant null checkers when DisableCheckers
// isolates checkpoint/log overhead (Fig. 10).
func (s *System) buildCheckerCluster() {
	pool := make([]detect.Checker, s.cfg.NumCheckers)
	if s.cfg.DisableCheckers {
		for i := range pool {
			pool[i] = &nullChecker{sink: s.det}
		}
	} else {
		// A tiny private L0 per core in front of an L1I shared by all
		// checkers, which connects to the main core's L2.
		sharedL1I := mem.NewCache(mem.CacheConfig{
			Name: "cL1I", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64,
			HitLat: s.chkClk.Duration(2), MSHRs: 4,
		}, s.memory.l2)
		ccfg := inorder.DefaultConfig(s.chkClk)
		for i := range pool {
			l0 := mem.NewCache(mem.CacheConfig{
				Name: fmt.Sprintf("cL0.%d", i), SizeBytes: 2 << 10,
				Ways: 2, LineBytes: 64, HitLat: 0, MSHRs: 1,
			}, sharedL1I)
			ck := inorder.New(i, ccfg, s.prog.prog, l0, s.det, s.eng)
			if s.fp != nil {
				if h := s.fp.inj.CheckerHook(i); h != nil {
					ck.Hooks().PostExec = h
				}
			}
			s.checkers = append(s.checkers, ck)
			pool[i] = ck
		}
	}
	s.det.AttachCheckers(pool)
}

// buildMainCore creates the out-of-order main core. Its commit gate is
// the scheme's checking hardware: the detector, a lockstep comparator
// two cycles behind commit, or the RMT comparator, whose core takes
// every instruction from the oracle twice. The bare core has none.
func (s *System) buildMainCore() {
	var src ooo.TraceSource = s.oracle
	var gate ooo.CommitGate
	switch s.scheme {
	case schemeProtected:
		gate = s.det
	case schemeLockstep:
		s.lockstep = lockstep.NewComparator(s.prog.prog, trace.InitialRegs(s.prog.prog), s.mainClk.Duration(2))
		gate = s.lockstep
	case schemeRMT:
		s.rmt = rmt.NewComparator()
		src, gate = &rmt.DupSource{Inner: s.oracle}, s.rmt
	}
	s.ocfg.Clock = s.mainClk
	bp := branch.New(branch.Config{})
	s.mainCore = ooo.New(s.ocfg, src, s.memory.l1i, s.memory.l1d, bp, gate)
	s.eng.Add(s.mainCore, 0)
}

// attachTelemetry arms the main core's probe and composes its Extra
// hook from the detection-side components the core cannot see. The
// hook runs once per sample interval, never per instruction.
func (s *System) attachTelemetry(p *telemetry.Probe) {
	det, checkers, eng := s.det, s.checkers, s.eng
	p.Extra = func(smp *telemetry.Sample) {
		if det != nil {
			det.TelemetryFill(smp)
		}
		// The core samples inside its activation, at the engine's time;
		// checkers may have run ahead of it.
		at := eng.Now()
		for _, ck := range checkers {
			busy, instrs := ck.TelemetrySnapshot(at)
			if busy {
				smp.CheckersBusy++
			}
			smp.CheckerInstrs += instrs
		}
	}
	s.mainCore.AttachProbe(p)
}

// Run executes the system to completion: the main core drains, then
// §IV-H holds back termination until every outstanding segment is
// checked. An untilVerdict run stops timing at its first confirmed
// error instead (see finishUntimed). A System is single-use.
func (s *System) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("paradet: system already run (build a new one)")
	}
	s.ran = true
	if s.untilVerdict {
		s.det.OnFirstError = s.eng.Stop
	}

	s.eng.Run(sim.MaxTime - 1)
	if s.stoppedAtVerdict() {
		return s.finishUntimed(), nil
	}
	if !s.mainCore.Done() {
		return nil, fmt.Errorf("paradet: main core failed to drain (deadlock)")
	}
	finish := s.eng.Now()
	if s.scheme == schemeProtected {
		s.det.Finish(finish)
		s.eng.Run(sim.MaxTime - 1)
		if s.stoppedAtVerdict() {
			return s.finishUntimed(), nil
		}
		if !s.det.AllChecked() {
			return nil, fmt.Errorf("paradet: checks did not complete after program end")
		}
	}
	return s.assembleResult(s.eng.Now()), nil
}

// stoppedAtVerdict reports whether the engine stopped at the first
// confirmed error of an untilVerdict run.
func (s *System) stoppedAtVerdict() bool {
	return s.untilVerdict && s.det.FirstError() != nil
}

// finishUntimed ends a run stopped at its first confirmed error, which
// strong induction never revises. The oracle alone runs the program to
// its end, with the fault hook still installed so sticky faults keep
// firing. Final memory, output and program fault cannot depend on
// timing: RDTIME is count-based and the oracle never runs a wrong path.
// The instruction count comes from the oracle too; in a full run the
// core commits every instruction the oracle emits.
func (s *System) finishUntimed() *Result {
	var di isa.DynInst
	for s.oracle.Next(&di) {
	}
	res := s.assembleResult(s.eng.Now())
	res.Instructions = s.oracle.M.InstCount
	return res
}

// assembleResult collects statistics from every component into the
// public Result.
func (s *System) assembleResult(wall sim.Time) *Result {
	cs := s.mainCore.Stats()
	res := &Result{
		Workload:     s.prog.name,
		Protected:    s.scheme == schemeProtected,
		Cycles:       cs.Cycles,
		Instructions: cs.Instructions,
		IPC:          cs.IPC(),
		TimeNS:       cs.FinishTime.Nanoseconds(),
		Loads:        cs.Loads,
		Stores:       cs.Stores,
		Branches:     cs.Branches,
		Mispredicts:  cs.Mispredicts,
		Output:       s.oracle.Env.Output,
		finalMem:     s.img,
	}
	if s.oracle.Err != nil {
		res.ProgFault = s.oracle.Err.Error()
	}
	if !res.Protected {
		return res
	}
	ds := s.det.Stats()
	res.Delay, res.DelayDensity = delaySummary(s.det.Delay)
	res.Checkpoints = ds.Checkpoints
	res.SealsByReason = map[string]uint64{
		"capacity":  ds.SealsByReason[detect.SealCapacity],
		"timeout":   ds.SealsByReason[detect.SealTimeout],
		"interrupt": ds.SealsByReason[detect.SealInterrupt],
		"finish":    ds.SealsByReason[detect.SealFinish],
	}
	res.SegmentsChecked = ds.SegmentsChecked
	res.EntriesLogged = ds.EntriesLogged
	res.LogFullStallCycles = cs.LogFullStallCycles
	res.CheckpointStallNS = cs.CheckpointStall.Nanoseconds()
	res.LFUPeak = ds.LFUPeak
	if fe := s.det.FirstError(); fe != nil {
		info := errorInfo(fe)
		res.FirstError = &info
	}
	for _, e := range s.det.Errors() {
		res.AllErrors = append(res.AllErrors, errorInfo(e))
	}
	for _, ck := range s.checkers {
		util := 0.0
		if wall > 0 {
			util = float64(ck.Stats().BusyTime) / float64(wall)
		}
		res.CheckerUtilization = append(res.CheckerUtilization, util)
	}
	return res
}
