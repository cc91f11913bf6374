// Command perfbench is the repository's benchmark. It runs one
// closed-loop workload over the simulator stack for a fixed time,
// checks every op's output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a traced run) as the last
// line of standard output. See README.md for the workloads, the
// metrics and how to run them.
//
//	bash perfbench/run.sh --workload sim_protected --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// watchdog bounds one invocation: a run that has not finished by then
// exits with an error rather than hang its caller.
const watchdog = 170 * time.Second

func main() {
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v\n", watchdog)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	timer.Stop()
	os.Exit(code)
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // build directory: scratch stores and trace files
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed that orders the work inside each op")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds, after set-up")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch stores and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", o.workload, workloadNames())
		return 2
	}
	work := filepath.Join(o.out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, rec, err := measure(w, o, work, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printJSON(stdout, map[string]any{"record": rec}); err != nil {
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record describes the run beside its metrics: the machine state that
// explains a noisy figure, and the figures that are not gated.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// SetupRuns are the wall seconds of each set-up; setup_s is their
	// median.
	SetupRuns  []float64 `json:"setup_runs_s,omitempty"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	// StealShare is the machine-wide share of CPU time stolen by the
	// hypervisor during the measured ops (-1 where /proc/stat is
	// unreadable).
	StealShare float64 `json:"steal_share"`
	// CPUPerWall is the process's CPU time over wall time in the
	// measured ops.
	CPUPerWall float64 `json:"cpu_per_wall"`
	Ops        int     `json:"ops"`
	// Blocks is how many stretches of ops the wall and CPU metrics
	// are medians over.
	Blocks        int     `json:"blocks,omitempty"`
	FailedOpRatio float64 `json:"failed_op_ratio"`
	// Extra holds ungated end-to-end figures: simulated instructions
	// per wall and per CPU second on sim_protected.
	Extra metrics `json:"extra,omitempty"`
	// TraceFile is the Chrome trace of a traced run.
	TraceFile string `json:"trace_file,omitempty"`
}

func newRecord(o options) record {
	return record{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Extra:      metrics{},
	}
}

func printJSON(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
