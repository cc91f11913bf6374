package campaign

import (
	"context"

	"paradet"
	"paradet/internal/obs/telemetry"
)

// Simulator abstracts the simulation entry points the campaign engine
// drives. The default implementation forwards to the paradet package;
// tests substitute wrappers to count or fake runs. Every run method
// takes the campaign's context: the engine checks it between cells,
// and implementations may additionally honour cancellation mid-run.
type Simulator interface {
	// Load assembles a named workload.
	Load(ctx context.Context, name string) (*paradet.Program, paradet.WorkloadInfo, error)
	// Run simulates the protected system.
	Run(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error)
	// RunUnprotected simulates the bare main core (the normalisation
	// baseline the engine memoises).
	RunUnprotected(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error)
	// RunLockstep simulates the dual-core lockstep baseline.
	RunLockstep(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error)
	// RunRMT simulates the redundant-multithreading baseline.
	RunRMT(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error)
	// ClassifyFault injects one fault into a protected run and
	// classifies the outcome against the golden (fault-free,
	// protected) result for the same program and configuration.
	ClassifyFault(ctx context.Context, cfg paradet.Config, p *paradet.Program, f paradet.Fault, golden *paradet.Result) (paradet.FaultRecord, error)
}

// TelemetrySimulator is an optional Simulator extension: a protected
// run with an interval telemetry probe attached. The engine
// type-asserts for it when Options.Telemetry is set and falls back to
// plain Run (no telemetry) on simulators that don't implement it, so
// test fakes keep working unchanged.
type TelemetrySimulator interface {
	RunTelemetry(ctx context.Context, cfg paradet.Config, p *paradet.Program, probe *telemetry.Probe) (*paradet.Result, error)
}

// Default returns the Simulator backed by the real paradet simulator.
func Default() Simulator { return defaultSim{} }

type defaultSim struct{}

func (defaultSim) Load(ctx context.Context, name string) (*paradet.Program, paradet.WorkloadInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, paradet.WorkloadInfo{}, err
	}
	return paradet.LoadWorkload(name)
}

func (defaultSim) Run(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return paradet.NewSystemBuilder(cfg, p).Run()
}

func (defaultSim) RunTelemetry(ctx context.Context, cfg paradet.Config, p *paradet.Program, probe *telemetry.Probe) (*paradet.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return paradet.NewSystemBuilder(cfg, p).WithTelemetry(probe).Run()
}

func (defaultSim) RunUnprotected(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return paradet.NewSystemBuilder(cfg, p).Protected(false).Run()
}

func (defaultSim) RunLockstep(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return paradet.RunLockstep(cfg, p, nil)
}

func (defaultSim) RunRMT(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return paradet.RunRMT(cfg, p)
}

func (defaultSim) ClassifyFault(ctx context.Context, cfg paradet.Config, p *paradet.Program, f paradet.Fault, golden *paradet.Result) (paradet.FaultRecord, error) {
	if err := ctx.Err(); err != nil {
		return paradet.FaultRecord{}, err
	}
	return paradet.ClassifyFault(cfg, p, f, golden)
}
