package campaign

import (
	"context"
	"fmt"

	"paradet"
	"paradet/internal/resultstore"
)

// CellID identifies one cell of a spec's expanded grid without
// executing anything: the cell's spec-order index (workload-major,
// then point, then fault — the same index Progress.Cell reports), its
// identity fields with the config fully resolved, and its persistent
// store key. Serving layers use it to answer "which cells would this
// spec produce, and under which fingerprints do they live?" with zero
// simulation.
type CellID struct {
	Index    int
	Workload string
	Point    string
	Scheme   Scheme
	Config   paradet.Config
	Fault    *paradet.Fault
	Key      resultstore.Key
}

// Fingerprint is the cell's store fingerprint (hex SHA-256 of the
// key's canonical serialization).
func (c *CellID) Fingerprint() string { return c.Key.Fingerprint() }

// Expand validates the spec and returns the identity of every cell of
// its expanded grid, in spec order, with configs resolved exactly as
// ExecuteContext resolves them (point config, then the spec override,
// then the workload default — which needs the workload metadata, so
// workloads are loaded through sim). Nothing is simulated and no store
// is touched; unlike ExecuteContext, an unloadable workload is a spec
// error here, since there is no per-cell Run to carry it.
func Expand(ctx context.Context, spec Spec, sim Simulator) ([]CellID, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sim == nil {
		sim = Default()
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	infos := make(map[string]paradet.WorkloadInfo, len(spec.Workloads))
	for _, name := range spec.Workloads {
		if _, ok := infos[name]; ok {
			continue
		}
		_, info, err := sim.Load(ctx, name)
		if err != nil {
			return nil, fmt.Errorf("campaign %q: load workload %s: %w", spec.Name, name, err)
		}
		infos[name] = info
	}
	runs := expandGrid(spec, func(name string) paradet.WorkloadInfo { return infos[name] })
	out := make([]CellID, len(runs))
	for i := range runs {
		r := &runs[i]
		out[i] = CellID{
			Index:    i,
			Workload: r.Workload,
			Point:    r.Point.Label,
			Scheme:   r.Scheme,
			Config:   r.Config,
			Fault:    r.Fault,
			Key:      CellKey(r),
		}
	}
	return out, nil
}

// expandGrid expands the spec workload-major, then point, then fault,
// so runs[(i*len(Points)+j)*nf+k] is (Workloads[i], Points[j],
// faults[k]), with each cell's config resolved through info(workload).
// Performance campaigns have one implicit nil fault. Both
// ExecuteContext and Expand build their grids here, so an executed
// campaign and a served lookup can never disagree about cell order or
// fingerprints.
func expandGrid(spec Spec, info func(string) paradet.WorkloadInfo) []Run {
	var faults []paradet.Fault
	nf := 1
	if spec.Faults != nil {
		faults = spec.Faults.Faults()
		nf = len(faults)
	}
	runs := make([]Run, len(spec.Workloads)*len(spec.Points)*nf)
	for i, name := range spec.Workloads {
		for j, pt := range spec.Points {
			for k := 0; k < nf; k++ {
				r := &runs[(i*len(spec.Points)+j)*nf+k]
				r.Workload = name
				r.Point = pt
				r.Scheme = spec.scheme(pt)
				r.Config = resolveConfig(pt.Config, spec.MaxInstrs, info(name))
				if faults != nil {
					f := faults[k]
					r.Fault = &f
				}
			}
		}
	}
	return runs
}

// CellKey is the persistent store identity of one expanded cell, and
// the key the campaign engine memoises it under. Protected and fault
// cells fingerprint the full resolved config. Unprotected, lockstep and
// RMT runs depend only on the program, the sample length and the main
// core, so their keys keep MaxInstrs, BigCore and MainCoreHz and zero
// every checker-side knob: sweep points share one reference run,
// whichever campaign produced it. BigCore overrides MainCoreHz, so the
// clock is zeroed too when it is set.
func CellKey(r *Run) resultstore.Key {
	key := resultstore.Key{Workload: r.Workload, Scheme: string(r.Scheme), Config: r.Config, Fault: r.Fault}
	if r.Fault == nil && r.Scheme != SchemeProtected {
		key.Config = paradet.Config{MaxInstrs: r.Config.MaxInstrs, BigCore: r.Config.BigCore}
		if !r.Config.BigCore {
			key.Config.MainCoreHz = r.Config.MainCoreHz
		}
	}
	return key
}
