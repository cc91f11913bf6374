// Command experiments regenerates the paper's evaluation tables and
// figures (DSN 2018, Ainsworth & Jones). Each figure is a declarative
// campaign spec executed by the parallel sweep engine; the text tables
// quote the paper's headline expectation above each figure.
//
// Usage:
//
//	experiments                 # run everything at default samples
//	experiments -run fig9       # one experiment
//	experiments -instrs 40000   # faster, smaller samples
//	experiments -workloads stream,randacc
//	experiments -parallel 4     # bound the sweep worker pool
//	experiments -run fig7 -json # machine-readable rows on stdout
//	experiments -run fig7 -csv  # flat CSV rows for spreadsheets
//	experiments -store .pdstore # persist results; re-runs skip hits
//	experiments -store .pdstore -no-cache   # ignore the store this run
//	experiments -run faultcov -json         # fault campaign, schema-stable JSON
//	experiments -run fig7 -shard 0/3 -store sweep   # this host's third of the grid
//	experiments -run fig7 -progress-json            # machine-readable progress (pdsweep)
//	experiments -run fig7 -store .pdstore -telemetry  # per-cell telemetry sidecars (pdreport)
//
// Output on stdout is deterministic: -parallel N produces bytes
// identical to -parallel 1, and a -store re-run produces bytes
// identical to the storeless path (cache traffic goes to stderr).
//
// Sharding: -shard i/n executes only the i-th of n deterministic
// slices of each sweep's grid, balanced by summed instruction samples,
// so n hosts split one campaign. Shards may share one -store directory
// (writes are atomic renames); shards that wrote their own stores are
// folded into one with `pdstore merge`. Re-running without -shard
// against that store then assembles the full sweep with zero
// simulations and stdout byte-identical to a single-host run.
// `pdsweep` automates the whole cycle from one command over one shared
// store, driving the -progress-json protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"paradet/internal/campaign"
	"paradet/internal/experiments"
	"paradet/internal/obs"
	"paradet/internal/orchestrator"
	"paradet/internal/prof"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, or one of "+
		strings.Join(experiments.Names(), ", "))
	instrs := flag.Uint64("instrs", 0, "committed-instruction sample per run (0 = workload default)")
	wl := flag.String("workloads", "", "comma-separated workload subset (default: all nine)")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit structured JSON rows instead of text tables")
	csvOut := flag.Bool("csv", false, "emit flat CSV rows instead of text tables")
	noCache := flag.Bool("no-cache", false, "ignore -store: simulate everything, write nothing")
	progress := flag.Bool("progress", false, "print per-cell progress to stderr")
	var worker orchestrator.WorkerFlags
	worker.Register(flag.CommandLine)
	profFlags := prof.Register()
	obsFlags := obs.Register()
	flag.Parse()
	defer profFlags.Start()()

	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "experiments: -json and -csv are mutually exclusive")
		os.Exit(1)
	}
	if *progress && worker.ProgressJSON {
		fmt.Fprintln(os.Stderr, "experiments: -progress and -progress-json are mutually exclusive")
		os.Exit(1)
	}

	// Ctrl-C cancels between cells; finished cells stay in the store.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *noCache {
		worker.Store = ""
	}
	copts, err := worker.Campaign(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if *progress {
		copts.Progress = func(p campaign.Progress) {
			state := "sim"
			if p.Cached {
				state = "hit"
			}
			if p.Err != nil {
				state = "ERR"
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s/%s[%s] (hits %d, sims %d, baseline sims %d)\n",
				p.Done, p.Total, state, p.Workload, p.Label, p.Scheme,
				p.CellHits+p.BaselineHits, p.CellSims, p.BaselineSims)
		}
	}

	progressFn, stopObs := orchestrator.ObserveProgress(obsFlags, copts.Progress)
	defer stopObs()

	stats := &campaign.Stats{}
	opts := experiments.Options{
		MaxInstrs: *instrs,
		Parallel:  *parallel,
		Context:   ctx,
		Store:     copts.Store,
		Progress:  progressFn,
		Stats:     stats,
		Shard:     copts.Shard,
		Telemetry: copts.Telemetry,
	}
	if *wl != "" {
		opts.Workloads = strings.Split(*wl, ",")
	}

	names := experiments.Names()
	if *run != "all" {
		names = []string{*run}
	}

	var simTime time.Duration
	var figures []*experiments.Figure
	for _, name := range names {
		start := time.Now()
		fig, err := experiments.Generate(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		simTime += time.Since(start)
		if *jsonOut || *csvOut {
			figures = append(figures, fig)
		} else {
			fmt.Println(fig.Text)
		}
		fmt.Fprintf(os.Stderr, "  [%s took %.1fs]\n", name, time.Since(start).Seconds())
	}

	// One-line cache summary (stderr, so stdout stays byte-identical to
	// the storeless path). CI greps this exact shape.
	fmt.Fprintf(os.Stderr, "cache: cells=%d hits=%d misses=%d baseline-sims=%d sim-time=%.1fs\n",
		stats.Cells, stats.CellHits+stats.BaselineHits, stats.CellSims+stats.BaselineSims,
		stats.BaselineSims, simTime.Seconds())
	if opts.Shard != nil {
		fmt.Fprintf(os.Stderr, "shard %s: executed %d of %d cells (%d owned elsewhere)\n",
			opts.Shard, stats.ShardCells, stats.Cells, stats.ShardSkipped)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(figures); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: encode: %v\n", err)
			os.Exit(1)
		}
	}
	if *csvOut {
		if err := experiments.WriteCSV(os.Stdout, figures); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
}
