// Package campaign is a parallel simulation-sweep engine. A campaign is
// a declarative Spec — workloads × config points × scheme — that the
// engine expands into independent cycle-level runs, fans out across a
// bounded worker pool, and collects back in deterministic spec order
// regardless of scheduling. Every cell and reference run goes through
// one memo with one entry per store key (CellKey): memo entry, then
// result store, then simulator. Reference runs (unprotected, lockstep,
// RMT) key on the workload, MaxInstrs, BigCore and, without BigCore,
// MainCoreHz, so a sweep of N points per workload simulates each
// baseline once instead of N times. Per-run failures are recorded on
// the run and aggregated; one bad point does not abort the sweep.
//
// Every figure of the paper's evaluation (internal/experiments) executes
// through this engine, as does the repository bench harness; new sweeps
// are written as specs, not loops.
package campaign

import (
	"fmt"

	"paradet"
)

// Scheme selects which system a run simulates.
type Scheme string

const (
	// SchemeProtected is the paper's system: main core + parallel
	// error detection.
	SchemeProtected Scheme = "protected"
	// SchemeUnprotected is the bare main core.
	SchemeUnprotected Scheme = "unprotected"
	// SchemeLockstep is the dual-core lockstep baseline.
	SchemeLockstep Scheme = "lockstep"
	// SchemeRMT is the redundant-multithreading baseline.
	SchemeRMT Scheme = "rmt"
)

func (s Scheme) valid() bool {
	switch s {
	case SchemeProtected, SchemeUnprotected, SchemeLockstep, SchemeRMT:
		return true
	}
	return false
}

// Point is one configuration of a sweep.
type Point struct {
	// Label names the point in reports ("36KiB/5000", "12c@1GHz", …).
	Label string
	// Config is the full simulator configuration for the point. A zero
	// MaxInstrs defers to Spec.MaxInstrs, then the workload default.
	Config paradet.Config
	// Scheme overrides Spec.Scheme for this point (empty = inherit),
	// letting one campaign compare schemes side by side (Fig. 1d).
	Scheme Scheme
}

// FaultGrid declares a fault dimension for a campaign: the cross
// product target × seq × bit × sticky, expanded like points. A spec
// with a fault grid classifies every (workload, point, fault) cell
// against a memoised fault-free golden run instead of measuring
// performance; all points must resolve to SchemeProtected, since fault
// detection is a property of the protected system.
type FaultGrid struct {
	// Targets are the architectural injection paths to sweep.
	Targets []paradet.FaultTarget
	// Seqs are the dynamic instruction numbers at which faults strike.
	Seqs []uint64
	// Bits are the flipped bit positions (0-63).
	Bits []uint8
	// Sticky selects transient and/or hard faults (nil = transient only).
	Sticky []bool
}

// Faults expands the grid in deterministic target-major order.
func (g *FaultGrid) Faults() []paradet.Fault {
	sticky := g.Sticky
	if len(sticky) == 0 {
		sticky = []bool{false}
	}
	out := make([]paradet.Fault, 0, len(g.Targets)*len(g.Seqs)*len(g.Bits)*len(sticky))
	for _, t := range g.Targets {
		for _, seq := range g.Seqs {
			for _, bit := range g.Bits {
				for _, st := range sticky {
					out = append(out, paradet.Fault{Target: t, Seq: seq, Bit: bit, Sticky: st})
				}
			}
		}
	}
	return out
}

func (g *FaultGrid) validate(name string) error {
	if len(g.Targets) == 0 || len(g.Seqs) == 0 || len(g.Bits) == 0 {
		return fmt.Errorf("campaign %q: fault grid needs targets, seqs and bits", name)
	}
	// Every fault of the grid, without building it (Sticky does not
	// change validity).
	for _, t := range g.Targets {
		for _, seq := range g.Seqs {
			for _, bit := range g.Bits {
				if err := (paradet.Fault{Target: t, Seq: seq, Bit: bit}).Validate(); err != nil {
					return fmt.Errorf("campaign %q: %w", name, err)
				}
			}
		}
	}
	return nil
}

// Spec declares a campaign: every workload crossed with every point.
type Spec struct {
	// Name labels the campaign in error messages.
	Name string
	// Workloads are the workload names to sweep.
	Workloads []string
	// Points are the configuration points to sweep per workload.
	Points []Point
	// Scheme is the default scheme for points that do not set their
	// own (empty = SchemeProtected).
	Scheme Scheme
	// MaxInstrs overrides the committed-instruction sample for points
	// whose Config.MaxInstrs is zero (0 = each workload's default).
	MaxInstrs uint64
	// WithBaseline additionally computes the memoised unprotected
	// baseline for each run and fills Run.Baseline and Run.Slowdown
	// (ignored for fault cells, which have no slowdown).
	WithBaseline bool
	// Parallel bounds the worker pool (0 = GOMAXPROCS).
	Parallel int
	// Faults, when set, adds a fault dimension: every (workload, point)
	// pair is crossed with every fault in the grid, and each cell is a
	// fault classification rather than a performance measurement.
	Faults *FaultGrid
}

func (s Spec) validate() error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("campaign %q: no workloads", s.Name)
	}
	if len(s.Points) == 0 {
		return fmt.Errorf("campaign %q: no points", s.Name)
	}
	if s.Scheme != "" && !s.Scheme.valid() {
		return fmt.Errorf("campaign %q: unknown scheme %q", s.Name, s.Scheme)
	}
	for _, p := range s.Points {
		if p.Scheme != "" && !p.Scheme.valid() {
			return fmt.Errorf("campaign %q: point %q: unknown scheme %q", s.Name, p.Label, p.Scheme)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.validate(s.Name); err != nil {
			return err
		}
		for _, p := range s.Points {
			if sch := s.scheme(p); sch != SchemeProtected {
				return fmt.Errorf("campaign %q: point %q: fault campaigns require the protected scheme, got %q",
					s.Name, p.Label, sch)
			}
		}
	}
	return nil
}

// scheme resolves the effective scheme for a point.
func (s Spec) scheme(p Point) Scheme {
	if p.Scheme != "" {
		return p.Scheme
	}
	if s.Scheme != "" {
		return s.Scheme
	}
	return SchemeProtected
}

// Run is one (workload, point) cell of a campaign's result grid.
type Run struct {
	// Workload and Point identify the cell; Scheme is the resolved
	// scheme it simulated.
	Workload string
	Point    Point
	Scheme   Scheme
	// Config is the fully resolved configuration (MaxInstrs filled in).
	Config paradet.Config
	// Res holds protected/unprotected results; Aux holds lockstep/RMT
	// results (exactly one of the two is set on success). Res, Aux,
	// Baseline and FaultRec may be shared with identical cells and
	// with the result store's reads, so they are read-only.
	Res *paradet.Result
	Aux *paradet.BaselineResult
	// Baseline is the shared memoised unprotected run (WithBaseline).
	Baseline *paradet.Result
	// Slowdown is run time over baseline time (WithBaseline).
	Slowdown float64
	// Fault identifies the injected fault for fault-campaign cells, and
	// FaultRec its classified outcome (both nil on performance cells).
	Fault    *paradet.Fault
	FaultRec *paradet.FaultRecord
	// Cached marks cells served without a simulation of their own: from
	// the result store, or from an identical cell's run in the same
	// campaign.
	Cached bool
	// Skipped marks cells excluded by Options.Shard: another shard owns
	// them, so they carry no payload and no error.
	Skipped bool
	// Err records this run's failure; the rest of the sweep continues.
	Err error
}

// TimeNS reports the run's simulated wall time regardless of scheme.
func (r *Run) TimeNS() float64 {
	switch {
	case r.Res != nil:
		return r.Res.TimeNS
	case r.Aux != nil:
		return r.Aux.TimeNS
	}
	return 0
}

// MeanDelayNS reports the mean detection delay regardless of scheme.
func (r *Run) MeanDelayNS() float64 {
	switch {
	case r.Res != nil:
		return r.Res.Delay.MeanNS
	case r.Aux != nil:
		return r.Aux.MeanDelayNS
	}
	return 0
}
