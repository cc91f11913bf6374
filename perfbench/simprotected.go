package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"paradet"
	"paradet/internal/asm"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/trace"
	"paradet/internal/workloads"
)

// simInstrs is sim_protected's committed-instruction sample per kernel.
const simInstrs = 40_000

// Span names of sim_protected's traced ops.
const (
	spanBuild     = "paradet.Build"
	spanSystemRun = "paradet.System.Run"
)

// kernel is one Table II workload with the outputs set-up recorded.
type kernel struct {
	name   string
	prog   *paradet.Program
	isa    *isa.Program    // the same image, for the oracle-only rung
	output []uint64        // the unprotected run's output
	want   *paradet.Result // set-up's protected run
}

// check compares one op's protected run with set-up's.
func (k *kernel) check(res *paradet.Result, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", k.name, err)
	case res.FirstError != nil:
		return fmt.Errorf("%s: error reported on a fault-free run: %s", k.name, res.FirstError.Kind)
	case !slices.Equal(res.Output, k.output):
		return fmt.Errorf("%s: output differs from the unprotected run", k.name)
	case res.Cycles != k.want.Cycles, res.Instructions != k.want.Instructions,
		res.Checkpoints != k.want.Checkpoints, res.SegmentsChecked != k.want.SegmentsChecked,
		res.EntriesLogged != k.want.EntriesLogged:
		return fmt.Errorf("%s: cycles/instrs/checkpoints/segments/entries %d/%d/%d/%d/%d, set-up ran %d/%d/%d/%d/%d",
			k.name, res.Cycles, res.Instructions, res.Checkpoints, res.SegmentsChecked, res.EntriesLogged,
			k.want.Cycles, k.want.Instructions, k.want.Checkpoints, k.want.SegmentsChecked, k.want.EntriesLogged)
	}
	return nil
}

// simProtected is the sim_protected workload: each op is one protected
// run of every Table II kernel, in a seeded order, on one goroutine.
type simProtected struct {
	seed    uint64
	cfg     paradet.Config
	kernels []kernel

	// Accumulated over traced ops.
	allocs, allocBytes, tracedInstrs uint64
	sums                             simCounts
}

// simCounts are simulated statistics summed over an op's kernels.
type simCounts struct {
	cycles, logFullStalls, checkpoints, segments, entries uint64
	busy                                                  float64 // Σ per-kernel mean checker utilization
}

func (c *simCounts) add(r *paradet.Result) {
	c.cycles += r.Cycles
	c.logFullStalls += r.LogFullStallCycles
	c.checkpoints += r.Checkpoints
	c.segments += r.SegmentsChecked
	c.entries += r.EntriesLogged
	var u float64
	for _, x := range r.CheckerUtilization {
		u += x
	}
	if n := len(r.CheckerUtilization); n > 0 {
		c.busy += u / float64(n)
	}
}

// setupSimProtected loads the kernels and records each one's expected
// output (an unprotected run) and statistics (a protected run).
func setupSimProtected(env *env, _ *tracer) (instance, error) {
	s := &simProtected{seed: env.seed, cfg: paradet.DefaultConfig()}
	s.cfg.MaxInstrs = simInstrs
	for _, info := range paradet.Workloads() {
		p, _, err := paradet.LoadWorkload(info.Name)
		if err != nil {
			return nil, err
		}
		_, src, err := workloads.Get(info.Name)
		if err != nil {
			return nil, err
		}
		ip, err := asm.Assemble(src)
		if err != nil {
			return nil, err
		}
		base, err := paradet.NewSystemBuilder(s.cfg, p).Protected(false).Run()
		if err != nil {
			return nil, fmt.Errorf("%s unprotected: %w", info.Name, err)
		}
		want, err := paradet.NewSystemBuilder(s.cfg, p).Run()
		if err != nil {
			return nil, fmt.Errorf("%s protected: %w", info.Name, err)
		}
		s.kernels = append(s.kernels, kernel{name: info.Name, prog: p, isa: ip, output: base.Output, want: want})
	}
	return s, nil
}

func (s *simProtected) instrsPerOp() uint64 {
	var n uint64
	for i := range s.kernels {
		n += s.kernels[i].want.Instructions
	}
	return n
}

func (s *simProtected) op(i int, m *meter, tr *tracer) error {
	order := opOrder(s.seed, i, len(s.kernels))
	results := make([]*paradet.Result, len(s.kernels))
	errs := make([]error, len(s.kernels))
	m.start()
	if tr == nil {
		for _, k := range order {
			results[k], errs[k] = paradet.NewSystemBuilder(s.cfg, s.kernels[k].prog).Run()
		}
	} else {
		opSpan := tr.begin(i, -1, "op")
		for _, k := range order {
			results[k], errs[k] = s.runTraced(i, opSpan, &s.kernels[k], tr)
		}
		tr.end(opSpan)
	}
	m.stop()
	for k := range s.kernels {
		if err := s.kernels[k].check(results[k], errs[k]); err != nil {
			return err
		}
		if tr != nil {
			s.sums.add(results[k])
		}
	}
	return nil
}

// runTraced is one kernel's protected run with Build and Run spans and
// the run's heap allocation.
func (s *simProtected) runTraced(op, parent int, k *kernel, tr *tracer) (*paradet.Result, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := tr.begin(op, parent, spanBuild)
	sys, err := paradet.NewSystemBuilder(s.cfg, k.prog).Build()
	tr.end(b)
	if err != nil {
		return nil, err
	}
	r := tr.begin(op, parent, spanSystemRun)
	res, err := sys.Run()
	tr.end(r)
	runtime.ReadMemStats(&after)
	s.allocs += after.Mallocs - before.Mallocs
	s.allocBytes += after.TotalAlloc - before.TotalAlloc
	if res != nil {
		s.tracedInstrs += res.Instructions
	}
	return res, err
}

func (s *simProtected) layers(ss *spanSet, ops int, out metrics) {
	n := float64(ops)
	builds := durationsMS(ss.durations(spanBuild))
	out.setLayer("paradet.build_us", 1000*median(builds))
	out.setLayer("paradet.allocs_per_kinstr", float64(s.allocs)/(float64(s.tracedInstrs)/1000))
	out.setLayer("paradet.bytes_per_instr", float64(s.allocBytes)/float64(s.tracedInstrs))
	buildT, _ := ss.sum(spanBuild)
	runT, runs := ss.sum(spanSystemRun)
	out.setLayer("paradet.sims_per_op", float64(runs)/n)
	out.setLayer("paradet.sim_ms_per_op", float64((buildT+runT).Nanoseconds())/1e6/n)
	out.setLayer("ooo.cycles_per_op", float64(s.sums.cycles)/n)
	out.setLayer("ooo.log_full_stall_cycles_per_op", float64(s.sums.logFullStalls)/n)
	out.setLayer("core.checkpoints_per_op", float64(s.sums.checkpoints)/n)
	out.setLayer("core.segments_checked_per_op", float64(s.sums.segments)/n)
	out.setLayer("core.entries_logged_per_op", float64(s.sums.entries)/n)
	out.setLayer("inorder.busy_ratio", s.sums.busy/(n*float64(len(s.kernels))))
}

// ladder times four rungs over the same kernels and sample, each one
// adding a layer: the functional oracle alone, the bare main core
// (Protected(false)), the protected core with null checkers
// (DisableCheckers) and the full protected system. Rounds run every
// rung once, in a seeded order, until the budget is spent; each rung's
// cost is its median pass in process CPU time, and a layer's cost is
// the difference between adjacent rungs.
func (s *simProtected) ladder(budget time.Duration, out metrics) error {
	noChk := s.cfg
	noChk.DisableCheckers = true
	rungs := []func(k *kernel) (uint64, error){
		func(k *kernel) (uint64, error) {
			o := trace.NewOracle(k.isa, mem.NewSparse(), simInstrs)
			var di isa.DynInst
			for o.Next(&di) {
			}
			return o.M.InstCount, o.Err
		},
		func(k *kernel) (uint64, error) {
			res, err := paradet.NewSystemBuilder(s.cfg, k.prog).Protected(false).Run()
			return instrsOf(res), err
		},
		func(k *kernel) (uint64, error) {
			res, err := paradet.NewSystemBuilder(noChk, k.prog).Run()
			return instrsOf(res), err
		},
		func(k *kernel) (uint64, error) {
			res, err := paradet.NewSystemBuilder(s.cfg, k.prog).Run()
			return instrsOf(res), err
		},
	}
	passes := make([][]float64, len(rungs)) // CPU ns per pass, by rung
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < budget; round++ {
		for _, r := range opOrder(s.seed, round, len(rungs)) {
			c0 := cpuTime()
			for k := range s.kernels {
				kn := &s.kernels[k]
				n, err := rungs[r](kn)
				if err != nil {
					return fmt.Errorf("rung %d %s: %w", r, kn.name, err)
				}
				if n != kn.want.Instructions {
					return fmt.Errorf("rung %d %s: %d instructions, want %d", r, kn.name, n, kn.want.Instructions)
				}
			}
			passes[r] = append(passes[r], float64(cpuTime()-c0))
		}
	}
	instrs := float64(s.instrsPerOp())
	var cycles float64
	for k := range s.kernels {
		cycles += float64(s.kernels[k].want.Cycles)
	}
	oracle, bare, nullChk, full := median(passes[0]), median(passes[1]), median(passes[2]), median(passes[3])
	out.setLayer("trace.ns_per_instr", oracle/instrs)
	out.setLayer("ooo.ns_per_instr", (bare-oracle)/instrs)
	out.setLayer("core.ns_per_instr", (nullChk-bare)/instrs)
	out.setLayer("inorder.ns_per_instr", (full-nullChk)/instrs)
	out.setLayer("ooo.host_ns_per_cycle", full/cycles)
	return nil
}

func instrsOf(r *paradet.Result) uint64 {
	if r == nil {
		return 0
	}
	return r.Instructions
}

func (s *simProtected) close() {}
