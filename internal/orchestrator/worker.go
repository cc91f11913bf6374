package orchestrator

import (
	"errors"
	"flag"
	"io"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"paradet/internal/campaign"
	"paradet/internal/obs"
	"paradet/internal/obs/telemetry"
	"paradet/internal/resultstore"
)

// WorkerFlags are the campaign-worker flags: the part of a worker's
// command line the orchestrator writes itself. cmd/experiments and
// cmd/hetsim declare them with Register and turn them into campaign
// options with Campaign; the orchestrator renders them into each
// worker's argv with Args. table() is the one declaration of the flag
// names.
type WorkerFlags struct {
	Shard             string
	Store             string
	ProgressJSON      bool
	Telemetry         bool
	TelemetryInterval uint64
}

// workerFlag is one row of the worker-flag table.
type workerFlag struct {
	name  string
	value any // *string, *bool or *uint64 into a WorkerFlags
	usage string
	// sweep is pdsweep's usage for the flags it takes itself and hands
	// on to every worker ("" = pdsweep does not take the flag).
	sweep string
}

// table lists the worker flags bound to w, in the order Args renders
// them.
func (w *WorkerFlags) table() []workerFlag {
	return []workerFlag{
		{"shard", &w.Shard,
			"execute one slice i/n of the campaign grid (e.g. 0/3), balancing summed instruction samples; give every shard one -store, or merge the shard stores with pdstore", ""},
		{"store", &w.Store,
			"campaign result store directory (cells persist across runs)", ""},
		{"progress-json", &w.ProgressJSON,
			"emit one machine-readable JSON progress line per completed cell to stderr (the pdsweep protocol)", ""},
		{"telemetry", &w.Telemetry,
			"write interval telemetry sidecars (<store>/telemetry/<fp>.jsonl, or ./telemetry without -store) for simulated protected runs; analyze with pdreport",
			"pass -telemetry to every shard worker; sidecars land in <store-root>/telemetry (use -store-root to keep them) and, with -trace, those of the cells this sweep simulated are rendered as per-cell counter tracks"},
		{"telemetry-interval", &w.TelemetryInterval,
			"committed instructions between telemetry samples (0 = default)",
			"with -telemetry, pass -telemetry-interval N (committed instructions between samples) to every shard worker (0 = the workers' default)"},
	}
}

// Register declares the worker flags on fs, defaulting to w's values.
func (w *WorkerFlags) Register(fs *flag.FlagSet) { w.register(fs, false) }

// RegisterSweep declares on fs the worker flags pdsweep takes itself
// (-telemetry, -telemetry-interval), defaulting to w's values.
func (w *WorkerFlags) RegisterSweep(fs *flag.FlagSet) { w.register(fs, true) }

func (w *WorkerFlags) register(fs *flag.FlagSet, sweep bool) {
	for _, f := range w.table() {
		usage := f.usage
		if sweep {
			if usage = f.sweep; usage == "" {
				continue
			}
		}
		switch v := f.value.(type) {
		case *string:
			fs.StringVar(v, f.name, *v, usage)
		case *bool:
			fs.BoolVar(v, f.name, *v, usage)
		case *uint64:
			fs.Uint64Var(v, f.name, *v, usage)
		}
	}
}

// Args renders every flag with a non-zero value as worker argv, in
// table order.
func (w WorkerFlags) Args() []string {
	var argv []string
	for _, f := range w.table() {
		switch v := f.value.(type) {
		case *string:
			if *v != "" {
				argv = append(argv, "-"+f.name, *v)
			}
		case *bool:
			if *v {
				argv = append(argv, "-"+f.name)
			}
		case *uint64:
			if *v != 0 {
				argv = append(argv, "-"+f.name, strconv.FormatUint(*v, 10))
			}
		}
	}
	return argv
}

// TelemetryArgs validates the telemetry flags and renders just them:
// the argv pdsweep appends to the campaign command for every worker.
func (w WorkerFlags) TelemetryArgs() ([]string, error) {
	if _, err := w.TelemetryOptions(); err != nil {
		return nil, err
	}
	return WorkerFlags{Telemetry: w.Telemetry, TelemetryInterval: w.TelemetryInterval}.Args(), nil
}

// TelemetryOptions returns the sidecar options -telemetry asks for
// (nil without it): sidecars go to <store>/telemetry, or to
// ./telemetry without -store.
func (w *WorkerFlags) TelemetryOptions() (*campaign.TelemetryOptions, error) {
	if !w.Telemetry {
		if w.TelemetryInterval != 0 {
			return nil, errors.New("-telemetry-interval needs -telemetry")
		}
		return nil, nil
	}
	dir := telemetry.SidecarDirName
	if w.Store != "" {
		dir = filepath.Join(w.Store, telemetry.SidecarDirName)
	}
	return &campaign.TelemetryOptions{Dir: dir, Interval: w.TelemetryInterval}, nil
}

// Campaign turns the parsed flags into campaign options: the shard,
// the opened store, the telemetry sidecars, and with -progress-json an
// Emitter writing to stderr.
func (w *WorkerFlags) Campaign(stderr io.Writer) (campaign.Options, error) {
	var opts campaign.Options
	if w.Shard != "" {
		sh, err := campaign.ParseShard(w.Shard)
		if err != nil {
			return opts, err
		}
		opts.Shard = &sh
	}
	var err error
	if opts.Telemetry, err = w.TelemetryOptions(); err != nil {
		return opts, err
	}
	if w.Store != "" {
		if opts.Store, err = resultstore.Open(w.Store); err != nil {
			return opts, err
		}
	}
	if w.ProgressJSON {
		opts.Progress = Emitter(stderr, opts.Shard, time.Now())
	}
	return opts, nil
}

// liveProgress is the /progress snapshot of an in-process campaign
// run (the orchestrated form is Snapshot).
type liveProgress struct {
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Hits     int    `json:"hits"`
	Sims     int    `json:"sims"`
	Workload string `json:"workload"`
	Point    string `json:"point"`
	Scheme   string `json:"scheme"`
}

// ObserveProgress starts f's ledger and debug endpoint and returns
// their stop function. When either is on, it chains a recorder of the
// latest cell onto progress so /progress always answers; unobserved
// runs get progress back unchanged, keeping the engine's nil-progress
// fast path.
func ObserveProgress(f *obs.Flags, progress campaign.ProgressFunc) (campaign.ProgressFunc, func()) {
	if !f.Active() {
		return progress, f.Start(nil)
	}
	var mu sync.Mutex
	var live liveProgress
	chained := func(p campaign.Progress) {
		mu.Lock()
		live = liveProgress{
			Done: p.Done, Total: p.Total,
			Hits: p.CellHits + p.BaselineHits, Sims: p.CellSims + p.BaselineSims,
			Workload: p.Workload, Point: p.Label, Scheme: string(p.Scheme),
		}
		mu.Unlock()
		if progress != nil {
			progress(p)
		}
	}
	return chained, f.Start(func() any {
		mu.Lock()
		defer mu.Unlock()
		return live
	})
}
