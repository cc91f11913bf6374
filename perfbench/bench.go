package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workload is one closed-loop benchmark workload.
type workload struct {
	name string
	// procs, when non-zero, is the run's GOMAXPROCS.
	procs int
	// setup builds a ready instance. tr is non-nil in the traced run,
	// where the instance also installs its timing wrappers.
	setup func(env *env, tr *tracer) (instance, error)
}

// env is what every set-up gets: the seed and a scratch directory
// inside the checkout.
type env struct {
	seed uint64
	work string
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs op number i and checks its output; a failed check is
	// returned as an error and counts as a failed op. tr is nil for an
	// untraced op, which must not touch any timing wrapper.
	op(i int, m *meter, tr *tracer) error
	// layers sets the instance's per-layer metrics from the spans and
	// counters of its ops traced so far.
	layers(ss *spanSet, tracedOps int, out metrics)
	close()
}

// laddered is an instance with a simulator cost ladder, run before the
// ops of a traced run.
type laddered interface {
	ladder(budget time.Duration, out metrics) error
}

// instrCounter is an instance that simulates a fixed number of
// committed instructions per op.
type instrCounter interface {
	instrsPerOp() uint64
}

var benchWorkloads = []workload{
	{name: "sim_protected", setup: setupSimProtected},
	{name: "figure_cold", setup: setupFigureCold},
	// One client session has no parallelism to use, and with a second
	// P every request hands off to an idle vCPU; on an oversubscribed
	// host each such wake-up waits for the hypervisor (alternating runs
	// measured 20-28% steal and a 45% higher p50 with two Ps, 5% steal
	// with one).
	{name: "serve_warm", setup: setupServeWarm, procs: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricSpec{
	// Simulator cost ladder and allocation, sim_protected.
	{"trace.ns_per_instr", "ns"},
	{"ooo.ns_per_instr", "ns"},
	{"core.ns_per_instr", "ns"},
	{"inorder.ns_per_instr", "ns"},
	{"ooo.host_ns_per_cycle", "ns"},
	{"paradet.build_us", "us"},
	{"paradet.allocs_per_kinstr", "count"},
	{"paradet.bytes_per_instr", "B"},
	// Simulated counts, sim_protected; they repeat exactly.
	{"ooo.cycles_per_op", "count"},
	{"ooo.log_full_stall_cycles_per_op", "count"},
	{"core.checkpoints_per_op", "count"},
	{"core.segments_checked_per_op", "count"},
	{"core.entries_logged_per_op", "count"},
	{"inorder.busy_ratio", "ratio"},
	// Campaign engine, figure_cold.
	{"paradet.sims_per_op", "count"},
	{"paradet.sim_ms_per_op", "ms"},
	{"fault.classifications_per_op", "count"},
	{"fault.ms_per_op", "ms"},
	{"lockstep.ms_per_op", "ms"},
	{"rmt.ms_per_op", "ms"},
	{"campaign.self_ms_per_op", "ms"},
	{"campaign.cell_ms_p50", "ms"},
	{"campaign.reference_sims_per_op", "count"},
	{"campaign.worker_busy_ratio", "ratio"},
	{"resultstore.puts_per_op", "count"},
	{"resultstore.put_ms_per_op", "ms"},
	{"resultstore.misses_per_op", "count"},
	// Serving path, serve_warm.
	{"serve.requests_per_op", "count"},
	{"serve.cell_ms", "ms"},
	{"serve.cell_query_ms", "ms"},
	{"serve.grid_ms", "ms"},
	{"serve.figure_ms", "ms"},
	{"serve.self_ms_per_op", "ms"},
	{"resultstore.read_ms_per_op", "ms"},
	{"resultstore.reads_per_op", "count"},
	{"resultstore.loose_hits_per_op", "count"},
	{"resultstore.segment_hits_per_op", "count"},
	{"campaign.loads_per_op", "count"},
	{"campaign.load_ms_per_op", "ms"},
	// Every workload.
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"perfbench.trace_overhead_pct", "%"},
}

func unitOf(specs []metricSpec, name string) string {
	i := slices.IndexFunc(specs, func(s metricSpec) bool { return s.name == name })
	if i < 0 {
		panic("perfbench: unknown metric " + name)
	}
	return specs[i].unit
}

// setLayer sets one per-layer metric with its declared unit.
func (m metrics) setLayer(name string, v float64) { m.set(name, unitOf(perLayer, name), v) }

// setupReps is how many times an untraced run sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

// minOps is the fewest ops a run measures, however short --seconds is.
const minOps = 4

// opOrder is the seeded permutation of n items that op i works
// through. Every seed does the same work; only its order changes.
func opOrder(seed uint64, i, n int) []int {
	return rand.New(rand.NewPCG(seed, uint64(i))).Perm(n)
}

// measure sets up the workload and runs its ops for o.seconds.
func measure(w workload, o options, work string, log io.Writer) (result, record, error) {
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	rec := newRecord(o)
	env := &env{seed: o.seed, work: work}
	var tr *tracer
	reps := setupReps
	if o.trace {
		tr, reps = newTracer(), 1
	}
	var inst instance
	var setups []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		in, err := w.setup(env, tr)
		if err != nil {
			return result{}, rec, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = in
	}
	defer inst.close()
	if o.trace {
		return measureTraced(w, inst, o, tr, rec, log)
	}

	t := newTally(w.name, log)
	var ops []meter
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < o.seconds; i++ {
		var m meter
		t.count(i, &m, inst.op(i, &m, nil))
		ops = append(ops, m)
	}
	res := t.finish(&rec)

	rec.SetupRuns = setups
	res.Metrics.set("setup_s", "s", median(setups))
	rec.Blocks = blockMetrics(ops, res.Metrics)
	res.Metrics.set("max_rss_mb", "MiB", maxRSSMB())
	if ic, ok := inst.(instrCounter); ok {
		instrs := float64(ic.instrsPerOp()) * float64(len(ops))
		rec.Extra.set("minstr_per_s", "Minstr/s", instrs/1e6/t.wall.Seconds())
		rec.Extra.set("minstr_per_cpu_s", "Minstr/s", instrs/1e6/t.cpu.Seconds())
	}
	return res, rec, nil
}

// blocks is how many stretches of consecutive ops an untraced run is
// cut into. On a shared host, contention slows a process for seconds
// to minutes at a time, so a whole-run figure moves with how much of the run such
// a stretch happened to cover. Each wall and CPU metric is therefore
// the median of its values over the blocks: a slow stretch moves the
// blocks it falls in, and the median hardly at all.
const blocks = 4

// blockMetrics cuts ops into at most blocks stretches of equal op
// count, each of at least minOps ops, and sets ops_per_s, op_p50_ms,
// op_p90_ms and cpu_ms_per_op to the median of the per-block values.
// It returns the number of blocks.
func blockMetrics(ops []meter, out metrics) int {
	k := min(blocks, max(1, len(ops)/minOps))
	var perSec, p50, p90, cpu []float64
	for b := 0; b < k; b++ {
		blk := ops[b*len(ops)/k : (b+1)*len(ops)/k]
		var wall, cpuT time.Duration
		ms := make([]float64, len(blk))
		for j, m := range blk {
			wall += m.wall
			cpuT += m.cpu
			ms[j] = float64(m.wall.Nanoseconds()) / 1e6
		}
		n := float64(len(blk))
		perSec = append(perSec, n/wall.Seconds())
		p50 = append(p50, quantile(ms, 0.5))
		p90 = append(p90, quantile(ms, 0.9))
		cpu = append(cpu, float64(cpuT.Nanoseconds())/1e6/n)
	}
	out.set("ops_per_s", "1/s", median(perSec))
	out.set("op_p50_ms", "ms", median(p50))
	out.set("op_p90_ms", "ms", median(p90))
	out.set("cpu_ms_per_op", "ms", median(cpu))
	return k
}

// measureTraced is the traced run: the ladder (sim_protected only),
// then traced and untraced ops in alternation, so that the tracing
// overhead is a paired comparison under the same machine conditions.
// End-to-end metrics come from the untraced run, not from here.
func measureTraced(w workload, inst instance, o options, tr *tracer, rec record, log io.Writer) (result, record, error) {
	layers := metrics{}
	for _, s := range perLayer {
		layers.set(s.name, s.unit, 0)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if l, ok := inst.(laddered); ok {
		if err := l.ladder(budget/2, layers); err != nil {
			return result{}, rec, fmt.Errorf("ladder: %w", err)
		}
		budget -= budget / 2
	}

	t := newTally(w.name, log)
	var traced, plain []time.Duration
	var gcPause, mallocs uint64
	var before, after runtime.MemStats
	start := time.Now()
	for i := 0; i < 2*minOps || i%2 == 1 || time.Since(start) < budget; i++ {
		var m meter
		if i%2 == 0 {
			t.count(i, &m, inst.op(i, &m, tr))
			traced = append(traced, m.wall)
			continue
		}
		runtime.ReadMemStats(&before)
		t.count(i, &m, inst.op(i, &m, nil))
		runtime.ReadMemStats(&after)
		gcPause += after.PauseTotalNs - before.PauseTotalNs
		mallocs += after.Mallocs - before.Mallocs
		plain = append(plain, m.wall)
	}
	res := t.finish(&rec)
	res.Metrics = layers

	inst.layers(newSpanSet(tr.snapshot()), len(traced), layers)
	np := float64(len(plain))
	layers.setLayer("runtime.gc_pause_ms_per_op", float64(gcPause)/1e6/np)
	layers.setLayer("runtime.allocs_per_op", float64(mallocs)/np)
	tMed, pMed := median(durationsMS(traced)), median(durationsMS(plain))
	layers.setLayer("perfbench.trace_overhead_pct", 100*(tMed/pMed-1))
	fmt.Fprintf(log, "perfbench: %s tracing overhead: traced op p50 %.3f ms vs untraced %.3f ms (%d pairs)\n",
		w.name, tMed, pMed, len(plain))

	rec.TraceFile = filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	if err := tr.writeChrome(rec.TraceFile, w.name); err != nil {
		return res, rec, fmt.Errorf("write trace: %w", err)
	}
	return res, rec, nil
}

// tally counts a run's ops and their measured wall and CPU time.
type tally struct {
	name              string
	log               io.Writer
	attempted, failed int
	wall, cpu         time.Duration
	stat0             cpuStat
	statOK            bool
}

func newTally(name string, log io.Writer) *tally {
	t := &tally{name: name, log: log}
	t.stat0, t.statOK = readCPUStat()
	return t
}

// count adds op i, which err failed when non-nil.
func (t *tally) count(i int, m *meter, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: %s op %d: %v\n", t.name, i, err)
	}
	t.wall += m.wall
	t.cpu += m.cpu
}

// finish fills the run's record and returns its result, metrics unset.
func (t *tally) finish(rec *record) result {
	stat1, ok := readCPUStat()
	rec.StealShare = stealShare(t.stat0, stat1, t.statOK, ok)
	rec.CPUPerWall = t.cpu.Seconds() / t.wall.Seconds()
	rec.Ops = t.attempted
	rec.FailedOpRatio = float64(t.failed) / float64(t.attempted)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics{}}
}

// runAll runs every workload, each in its own process, and prints one
// table of their metrics with units, the ungated figures included.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s %-36s %14s  %s\n", "workload", "metric", "value", "unit")
	for _, w := range benchWorkloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", trace, "--out", o.out)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		var rec struct{ Record record }
		if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil ||
			json.Unmarshal([]byte(lines[len(lines)-2]), &rec) != nil {
			fmt.Fprintf(stderr, "perfbench: %s: unreadable result\n", w.name)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		specs := endToEnd
		if o.trace {
			specs = perLayer
		}
		for _, s := range specs {
			fmt.Fprintf(stdout, "%-14s %-36s %14.6g  %s\n", w.name, s.name, res.Metrics[s.name].Value, s.unit)
		}
		fmt.Fprintf(stdout, "%-14s %-36s %14.6g  %s\n", w.name, "failed_op_ratio", rec.Record.FailedOpRatio, "ratio")
		fmt.Fprintf(stdout, "%-14s %-36s %14d  %s\n", w.name, "ops", rec.Record.Ops, "count")
		for _, name := range []string{"minstr_per_s", "minstr_per_cpu_s"} {
			if m, ok := rec.Record.Extra[name]; ok {
				fmt.Fprintf(stdout, "%-14s %-36s %14.6g  %s\n", w.name, name, m.Value, m.Unit)
			}
		}
		fmt.Fprintf(stdout, "%-14s %-36s %14.4f  %s\n", w.name, "steal_share", rec.Record.StealShare, "ratio")
	}
	return code
}
