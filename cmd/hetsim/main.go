// Command hetsim runs one workload (or a PDX64 assembly file) on the
// simulated heterogeneous error-detection system and prints a report.
//
// Usage:
//
//	hetsim -workload stream
//	hetsim -workload randacc -checkers 6 -checker-mhz 500 -log-kib 18
//	hetsim -asm prog.s -instrs 100000
//	hetsim -workload bitcount -fault store-value:40:5
//	hetsim -workload stream -baseline lockstep
//	hetsim -workload stream -telemetry      # interval sidecar for pdreport
//
// A fault-injection grid runs as a first-class campaign — the cross
// product of -fault-targets, -fault-seqs and -fault-bits — optionally
// memoised in a persistent result store and emitted as schema-stable
// JSON:
//
//	hetsim -workload bitcount -fault-targets dest-reg,store-value \
//	    -fault-seqs 40,400 -fault-bits 5,40 -store .pdstore -json
//
// A fault campaign splits across hosts with -shard i/n: each host
// executes a disjoint slice of the grid, balanced by summed
// instruction samples, into one shared -store (or its own, folded
// together with `pdstore merge`), and re-running without -shard
// against that store emits the full report with zero simulations.
// `pdsweep` automates that cycle from one command, via the
// -progress-json machine-readable progress protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"paradet"
	"paradet/internal/campaign"
	"paradet/internal/experiments"
	"paradet/internal/obs"
	"paradet/internal/obs/telemetry"
	"paradet/internal/orchestrator"
	"paradet/internal/prof"
	"paradet/internal/resultstore"
)

func main() {
	workload := flag.String("workload", "", "workload name (see -list)")
	asmFile := flag.String("asm", "", "PDX64 assembly file to run instead of a workload")
	list := flag.Bool("list", false, "list workloads and exit")
	instrs := flag.Uint64("instrs", 0, "committed-instruction budget (0 = workload default)")
	checkers := flag.Int("checkers", 12, "number of checker cores")
	checkerMHz := flag.Uint64("checker-mhz", 1000, "checker core clock in MHz")
	logKiB := flag.Int("log-kib", 36, "total load-store log size in KiB")
	timeout := flag.Uint64("timeout", 5000, "segment instruction timeout (0 = infinite)")
	baseline := flag.String("baseline", "", "also run a baseline: lockstep, rmt, or unprotected")
	faultSpec := flag.String("fault", "", "inject a fault: target:seq:bit[:sticky], e.g. store-value:40:5")
	faultTargets := flag.String("fault-targets", "", "fault campaign: comma-separated targets (or \"all\")")
	faultSeqs := flag.String("fault-seqs", "40,400", "fault campaign: comma-separated strike instruction numbers")
	faultBits := flag.String("fault-bits", "5,40", "fault campaign: comma-separated bit positions (0-63)")
	faultSticky := flag.Bool("fault-sticky", false, "fault campaign: also sweep hard (sticky) faults")
	jsonOut := flag.Bool("json", false, "fault campaign: emit schema-stable JSON instead of text")
	// -store, -shard and -progress-json apply to fault campaigns; -store
	// also places single-run telemetry sidecars.
	var worker orchestrator.WorkerFlags
	worker.Register(flag.CommandLine)
	profFlags := prof.Register()
	obsFlags := obs.Register()
	flag.Parse()
	defer profFlags.Start()()

	if *list {
		for _, w := range paradet.Workloads() {
			fmt.Printf("%-14s %-8s %-16s %s\n", w.Name, w.Suite, w.Class, w.Description)
		}
		return
	}

	cfg := paradet.DefaultConfig()
	cfg.NumCheckers = *checkers
	cfg.CheckerHz = *checkerMHz * 1_000_000
	cfg.LogBytes = *logKiB * 1024
	if *timeout == 0 {
		cfg.TimeoutInstrs = paradet.NoTimeout
	} else {
		cfg.TimeoutInstrs = *timeout
	}
	cfg.MaxInstrs = *instrs // 0 = workload default (resolved below / by the engine)

	telemOpts, err := worker.TelemetryOptions()
	if err != nil {
		fail(err)
	}

	if *faultTargets != "" {
		// The campaign engine loads (and assembles) the workload itself,
		// so branch before loadProgram to avoid assembling it twice.
		if *workload == "" {
			fail(fmt.Errorf("fault campaigns need -workload (the campaign engine loads by name)"))
		}
		err := runFaultCampaign(*workload, cfg, faultGridArgs{
			targets: *faultTargets, seqs: *faultSeqs, bits: *faultBits, sticky: *faultSticky,
		}, *jsonOut, &worker, obsFlags)
		if err != nil {
			fail(err)
		}
		return
	}
	if worker.Shard != "" || worker.ProgressJSON {
		fail(fmt.Errorf("-shard and -progress-json only apply to fault campaigns (-fault-targets)"))
	}

	// Single runs still get /metrics, /debug/pprof and the ledger; only
	// /progress (a campaign concept) is absent.
	stopObs := obsFlags.Start(nil)
	defer stopObs()

	prog, name, def, err := loadProgram(*workload, *asmFile)
	if err != nil {
		fail(err)
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = def
	}

	var faults []paradet.Fault
	if *faultSpec != "" {
		f, err := parseFault(*faultSpec)
		if err != nil {
			fail(err)
		}
		faults = append(faults, f)
	}

	// With -telemetry the protected run goes through the builder so a
	// probe can ride along; the probe is out-of-band, so the Result (and
	// every printed line) is identical to the plain RunWithFaults path.
	var probe *telemetry.Probe
	b := paradet.NewSystemBuilder(cfg, prog).WithFaults(faults...)
	if telemOpts != nil {
		probe = telemetry.New(telemOpts.Interval, telemetry.DefaultCap)
		b.WithTelemetry(probe)
	}
	res, err := b.Run()
	if err != nil {
		fail(err)
	}
	if probe != nil {
		writeSingleRunSidecar(telemOpts.Dir, name, cfg, probe)
	}
	base, err := paradet.RunUnprotected(cfg, prog)
	if err != nil {
		fail(err)
	}

	fmt.Printf("workload %s: %d instructions\n", name, res.Instructions)
	fmt.Printf("  unprotected: %12.1f us  (IPC %.2f)\n", base.TimeNS/1000, base.IPC)
	fmt.Printf("  protected:   %12.1f us  (slowdown %.4f)\n", res.TimeNS/1000, res.TimeNS/base.TimeNS)
	fmt.Printf("  detection delay: mean %.0f ns, max %.1f us, %.3f%% < 5 us\n",
		res.Delay.MeanNS, res.Delay.MaxNS/1000, res.Delay.FracBelow5us*100)
	fmt.Printf("  checkpoints: %d (%v), log entries: %d, log-full stalls: %d cycles\n",
		res.Checkpoints, res.SealsByReason, res.EntriesLogged, res.LogFullStallCycles)
	if len(res.CheckerUtilization) > 0 {
		var sum float64
		for _, u := range res.CheckerUtilization {
			sum += u
		}
		fmt.Printf("  mean checker utilisation: %.1f%%\n", sum/float64(len(res.CheckerUtilization))*100)
	}
	if res.FirstError != nil {
		fmt.Printf("  ERROR DETECTED: %s at segment %d inst %d (t=%.0f ns): %s\n",
			res.FirstError.Kind, res.FirstError.SegmentSeq, res.FirstError.InstSeq,
			res.FirstError.DetectedNS, res.FirstError.Detail)
	} else if len(faults) > 0 {
		fmt.Printf("  no error detected (fault masked or out of sphere)\n")
	}

	switch *baseline {
	case "":
	case "unprotected":
		// already printed
	case "lockstep":
		b, err := paradet.RunLockstep(cfg, prog, nil)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  lockstep:    %12.1f us  (slowdown %.4f, delay %.1f ns)\n",
			b.TimeNS/1000, b.TimeNS/base.TimeNS, b.MeanDelayNS)
	case "rmt":
		b, err := paradet.RunRMT(cfg, prog)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  rmt:         %12.1f us  (slowdown %.4f, delay %.1f ns)\n",
			b.TimeNS/1000, b.TimeNS/base.TimeNS, b.MeanDelayNS)
	default:
		fail(fmt.Errorf("unknown baseline %q", *baseline))
	}
}

type faultGridArgs struct {
	targets, seqs, bits string
	sticky              bool
}

// parseGrid compiles the CLI grid flags into a campaign fault grid.
func parseGrid(a faultGridArgs) (campaign.FaultGrid, error) {
	var g campaign.FaultGrid
	if a.targets == "all" {
		g.Targets = paradet.FaultTargets()
	} else {
		for _, t := range strings.Split(a.targets, ",") {
			tt := paradet.FaultTarget(strings.TrimSpace(t))
			if !tt.Valid() {
				return g, fmt.Errorf("unknown fault target %q", tt)
			}
			g.Targets = append(g.Targets, tt)
		}
	}
	for _, s := range strings.Split(a.seqs, ",") {
		seq, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return g, fmt.Errorf("fault seq: %w", err)
		}
		g.Seqs = append(g.Seqs, seq)
	}
	for _, s := range strings.Split(a.bits, ",") {
		bit, err := strconv.ParseUint(strings.TrimSpace(s), 10, 8)
		if err != nil {
			return g, fmt.Errorf("fault bit: %w", err)
		}
		if bit > 63 {
			return g, fmt.Errorf("fault bit %d out of range (values are 64-bit; want 0-63)", bit)
		}
		g.Bits = append(g.Bits, uint8(bit))
	}
	g.Sticky = []bool{false}
	if a.sticky {
		g.Sticky = []bool{false, true}
	}
	return g, nil
}

// runFaultCampaign executes the fault grid as a campaign spec and
// prints either the text summary or the versioned JSON report. With
// -shard it covers only that slice of the grid (the report then only
// covers the shard's cells).
func runFaultCampaign(workload string, cfg paradet.Config, args faultGridArgs, jsonOut bool, worker *orchestrator.WorkerFlags, obsFlags *obs.Flags) error {
	grid, err := parseGrid(args)
	if err != nil {
		return err
	}
	opts, err := worker.Campaign(os.Stderr)
	if err != nil {
		return err
	}
	var stopObs func()
	opts.Progress, stopObs = orchestrator.ObserveProgress(obsFlags, opts.Progress)
	defer stopObs()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	out, err := campaign.ExecuteContext(ctx, campaign.Spec{
		Name:      "hetsim-faults",
		Workloads: []string{workload},
		Points:    []campaign.Point{{Label: "cli", Config: cfg}},
		MaxInstrs: cfg.MaxInstrs,
		Faults:    &grid,
	}, nil, opts)
	if err != nil {
		return err
	}
	rep, err := experiments.FaultReportFromOutcome(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cache: cells=%d hits=%d misses=%d baseline-sims=%d\n",
		out.Stats.Cells, out.Stats.CellHits+out.Stats.BaselineHits,
		out.Stats.CellSims+out.Stats.BaselineSims, out.Stats.BaselineSims)
	if opts.Shard != nil {
		fmt.Fprintf(os.Stderr, "shard %s: executed %d of %d cells (%d owned elsewhere)\n",
			opts.Shard, out.Stats.ShardCells, out.Stats.Cells, out.Stats.ShardSkipped)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Print(experiments.RenderFaultCov(rep))
	return nil
}

func loadProgram(workload, asmFile string) (*paradet.Program, string, uint64, error) {
	switch {
	case workload != "" && asmFile != "":
		return nil, "", 0, fmt.Errorf("give either -workload or -asm, not both")
	case workload != "":
		p, info, err := paradet.LoadWorkload(workload)
		return p, workload, info.DefaultMaxInstrs, err
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, "", 0, err
		}
		p, err := paradet.Assemble(string(src))
		return p, asmFile, 1_000_000, err
	default:
		return nil, "", 0, fmt.Errorf("need -workload or -asm (try -list)")
	}
}

func parseFault(spec string) (paradet.Fault, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 {
		return paradet.Fault{}, fmt.Errorf("fault spec %q: want target:seq:bit[:sticky]", spec)
	}
	seq, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return paradet.Fault{}, fmt.Errorf("fault seq: %w", err)
	}
	bit, err := strconv.ParseUint(parts[2], 10, 8)
	if err != nil {
		return paradet.Fault{}, fmt.Errorf("fault bit: %w", err)
	}
	if bit > 63 {
		return paradet.Fault{}, fmt.Errorf("fault bit %d out of range (values are 64-bit; want 0-63)", bit)
	}
	f := paradet.Fault{Target: paradet.FaultTarget(parts[0]), Seq: seq, Bit: uint8(bit)}
	if len(parts) > 3 && parts[3] == "sticky" {
		f.Sticky = true
	}
	return f, nil
}

// writeSingleRunSidecar persists the single-run probe as a sidecar
// named by the same store fingerprint a campaign cell would use, so
// pdreport reads CLI runs and campaign sweeps interchangeably. All
// reporting goes to stderr; stdout stays byte-identical to a run
// without -telemetry.
func writeSingleRunSidecar(dir, name string, cfg paradet.Config, probe *telemetry.Probe) {
	s := telemetry.Series{
		Header: telemetry.Header{
			Fingerprint: resultstore.Key{
				Workload: name,
				Scheme:   string(campaign.SchemeProtected),
				Config:   cfg,
			}.Fingerprint(),
			Workload: name,
			Point:    "cli",
			Scheme:   string(campaign.SchemeProtected),
		},
		Samples: probe.Samples(),
	}
	s.Header.Finalize(probe)
	path, err := s.WriteFile(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetsim: telemetry:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "telemetry: %d samples (%d kept) -> %s\n",
		probe.Total(), len(s.Samples), path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hetsim:", err)
	os.Exit(1)
}
