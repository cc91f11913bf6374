package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"paradet"
	"paradet/internal/campaign"
	"paradet/internal/obs/telemetry"
	"paradet/internal/resultstore"
)

// orchSpec is a small sweep with uneven cell costs, so the
// cost-weighted shard plan has something to balance: 2 workloads x 3
// points, one point 4x heavier than the others.
func orchSpec() campaign.Spec {
	mk := func(label string, hz, instrs uint64) campaign.Point {
		cfg := paradet.DefaultConfig()
		cfg.CheckerHz = hz
		cfg.MaxInstrs = instrs
		return campaign.Point{Label: label, Config: cfg}
	}
	return campaign.Spec{
		Name:      "orch-test",
		Workloads: []string{"randacc", "bitcount"},
		Points: []campaign.Point{
			mk("heavy", 1_000_000_000, 8000),
			mk("light", 500_000_000, 2000),
			mk("light2", 250_000_000, 2000),
		},
		WithBaseline: true,
		Parallel:     1,
	}
}

// countingSim counts protected-cell simulations, the currency of the
// "each cell simulated exactly once across the whole sweep" contract.
type countingSim struct {
	campaign.Simulator
	runs atomic.Int64
}

func (c *countingSim) Run(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	c.runs.Add(1)
	return c.Simulator.Run(ctx, cfg, p)
}

// renderOutcome is the fake worker's deterministic "figure output":
// the spec-order projection of every cell. Identical outcomes render
// identical bytes, which is what the orchestrator promises about
// assembly stdout.
func renderOutcome(t *testing.T, out *campaign.Outcome) string {
	t.Helper()
	type cell struct {
		Workload, Label string
		Slowdown        float64
		Res             *paradet.Result
	}
	var cells []cell
	for i := range out.Results {
		r := &out.Results[i]
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Workload, r.Point.Label, r.Err)
		}
		cells = append(cells, cell{r.Workload, r.Point.Label, r.Slowdown, r.Res})
	}
	b, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseWorkerArgv parses a worker command line (argv[0] is the
// command) with the worker-flag table, as cmd/experiments does.
func parseWorkerArgv(argv []string) (WorkerFlags, error) {
	var w WorkerFlags
	fs := flag.NewFlagSet(argv[0], flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	w.Register(fs)
	if err := fs.Parse(argv[1:]); err != nil {
		return w, err
	}
	if fs.NArg() > 0 {
		return w, fmt.Errorf("stray worker arguments %q", fs.Args())
	}
	return w, nil
}

// fakeWorker implements Runner by running the campaign engine
// in-process. It parses its argv with the worker-flag table and builds
// its campaign options with WorkerFlags.Campaign, so every test here
// runs the argv the orchestrator really renders. dieShard names one
// shard whose first attempt is killed (context-cancelled, like a
// crashed host) after dieAfter cells.
type fakeWorker struct {
	t        *testing.T
	spec     campaign.Spec
	sim      campaign.Simulator
	dieShard int // -1 = never die
	dieAfter int
	died     atomic.Bool
}

func (f *fakeWorker) Name() string { return "fake" }

func (f *fakeWorker) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	w, err := parseWorkerArgv(argv)
	if err != nil {
		return err
	}
	if w.Store == "" {
		return fmt.Errorf("fake worker: no store in %q", argv)
	}
	opts, err := w.Campaign(stderr)
	if err != nil {
		return err
	}

	runCtx := ctx
	killAfter := 0
	var kill context.CancelFunc
	if opts.Shard != nil && opts.Shard.Index == f.dieShard && f.died.CompareAndSwap(false, true) {
		runCtx, kill = context.WithCancel(ctx)
		defer kill()
		killAfter = f.dieAfter
	}
	emit := opts.Progress
	cells := 0
	opts.Progress = func(p campaign.Progress) {
		if emit != nil {
			emit(p)
		}
		if cells++; killAfter > 0 && cells >= killAfter {
			kill()
		}
	}
	out, err := campaign.ExecuteContext(runCtx, f.spec, f.sim, opts)
	if err != nil {
		return err
	}
	if err := out.Err(); err != nil {
		return err
	}
	if opts.Shard == nil { // assembly pass: print the final figure
		fmt.Fprintln(stdout, renderOutcome(f.t, out))
	}
	return nil
}

// fakePool is a pool of n hosts running inner, with stealing off: the
// pool pdsweep builds without -hosts.
func fakePool(n int, inner Runner) *Pool {
	hosts := make([]Runner, n)
	for i := range hosts {
		hosts[i] = &poolHost{name: fmt.Sprintf("fake%d", i), inner: inner}
	}
	return testPool(hosts, false)
}

// checkOneStore asserts the store root is the sweep's one plain result
// store: no per-shard or merged store beside it, every cell verifies,
// and the index lists one entry per cell.
func checkOneStore(t *testing.T, root string) {
	t.Helper()
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "shard") || e.Name() == "merged" {
			t.Errorf("store root holds %s: want one store, no shard or merged stores", e.Name())
		}
	}
	st, err := resultstore.OpenExisting(root)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !vr.OK() || vr.Good == 0 {
		t.Errorf("store verify = %+v", vr)
	}
	idx, err := st.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != vr.Good {
		t.Errorf("index holds %d entries for %d cells", len(idx), vr.Good)
	}
}

// TestOrchestratedSweepEquivalence is the tentpole contract: three
// orchestrated shards produce assembly stdout byte-identical to a
// single-host run, every protected cell is simulated exactly once
// across all shards (disjoint cover), assembly simulates nothing, and
// the store root is one plain store.
func TestOrchestratedSweepEquivalence(t *testing.T) {
	spec := orchSpec()
	ref, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutcome(t, ref) + "\n"

	sim := &countingSim{Simulator: campaign.Default()}
	worker := &fakeWorker{t: t, spec: spec, sim: sim, dieShard: -1}
	root := t.TempDir()
	var stdout, log bytes.Buffer
	var snaps []Snapshot
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    3,
		Pool:      fakePool(3, worker),
		assembler: worker,
		StoreRoot: root,
		Progress:  func(s Snapshot) { snaps = append(snaps, s) },
		Stdout:    &stdout,
		Stderr:    &log,
	})
	if err != nil {
		t.Fatalf("orchestrated run failed: %v\n%s", err, log.String())
	}
	if stdout.String() != want {
		t.Errorf("assembly stdout differs from the single-host run:\n got %q\nwant %q", stdout.String(), want)
	}
	cellCount := len(spec.Workloads) * len(spec.Points)
	if got := int(sim.runs.Load()); got != cellCount {
		t.Errorf("protected simulations = %d, want %d (shards must cover the grid exactly once)", got, cellCount)
	}
	if rep.Sims != 0 {
		t.Errorf("assembly sims = %d, want 0", rep.Sims)
	}
	if rep.Cells != cellCount {
		t.Errorf("assembled cells = %d, want %d", rep.Cells, cellCount)
	}
	checkOneStore(t, root)
	if rep.Pool.Relaunches != 0 || rep.Pool.Steals != 0 {
		t.Errorf("relaunches = %d, steals = %d, want 0", rep.Pool.Relaunches, rep.Pool.Steals)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	last := snaps[len(snaps)-1]
	if last.Done != cellCount || last.Total != cellCount || last.Slowest != -1 {
		t.Errorf("final snapshot = %+v, want done %d/%d and no slowest shard", last, cellCount, cellCount)
	}
	sawSlowest := false
	for _, s := range snaps {
		if s.Slowest >= 0 {
			sawSlowest = true
		}
	}
	if !sawSlowest {
		t.Error("no in-flight snapshot named a slowest shard")
	}
}

// TestOrchestratedCompaction runs the 3-shard sweep with compaction:
// the store must end up fully packed (no loose cells), the assembly
// pass must read everything through the segment layer with zero
// simulations, and stdout must still be byte-identical to the
// single-host run.
func TestOrchestratedCompaction(t *testing.T) {
	spec := orchSpec()
	ref, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutcome(t, ref) + "\n"

	worker := &fakeWorker{t: t, spec: spec, sim: campaign.Default(), dieShard: -1}
	root := t.TempDir()
	var stdout, log bytes.Buffer
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    3,
		Pool:      fakePool(3, worker),
		assembler: worker,
		StoreRoot: root,
		Compact:   true,
		Stdout:    &stdout,
		Stderr:    &log,
	})
	if err != nil {
		t.Fatalf("orchestrated run failed: %v\n%s", err, log.String())
	}
	if rep.Compact == nil || rep.Compact.Packed == 0 {
		t.Fatalf("compaction stats missing: %+v", rep.Compact)
	}
	st, err := resultstore.OpenExisting(root)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := st.Index()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compact.Packed != len(idx) {
		t.Errorf("packed %d cells of %d indexed — compaction must cover the whole store",
			rep.Compact.Packed, len(idx))
	}
	if rep.Sims != 0 {
		t.Errorf("assembly sims = %d, want 0 (served through segments)", rep.Sims)
	}
	if stdout.String() != want {
		t.Error("assembly stdout differs from the single-host run after compaction")
	}
	// The store is fully packed: loose tree empty, one segment.
	fp, err := st.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp.LooseCells != 0 || fp.Segments != 1 || fp.SegmentCells != rep.Compact.Packed {
		t.Errorf("store layout = %+v, want fully packed into one segment", fp)
	}
	checkOneStore(t, root)
	if !strings.Contains(log.String(), "compacted store") {
		t.Errorf("compaction not surfaced on stderr:\n%s", log.String())
	}
}

// TestShardRetryResumesFromStore kills one shard worker after its
// first cell; the pool must relaunch it, the relaunch must resume from
// the store (no cell simulated twice), and the final output must still
// be byte-identical with zero assembly sims.
func TestShardRetryResumesFromStore(t *testing.T) {
	spec := orchSpec()
	ref, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutcome(t, ref) + "\n"

	sim := &countingSim{Simulator: campaign.Default()}
	worker := &fakeWorker{t: t, spec: spec, sim: sim, dieShard: 1, dieAfter: 1}
	var stdout, log bytes.Buffer
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    3,
		Pool:      fakePool(3, worker),
		assembler: worker,
		StoreRoot: t.TempDir(),
		Retries:   1,
		Stdout:    &stdout,
		Stderr:    &log,
	})
	if err != nil {
		t.Fatalf("orchestrated run failed: %v\n%s", err, log.String())
	}
	if got := rep.Shards[1].Attempts; got != 2 {
		t.Errorf("shard 1 attempts = %d, want 2 (die once, resume once)", got)
	}
	for _, i := range []int{0, 2} {
		if got := rep.Shards[i].Attempts; got != 1 {
			t.Errorf("shard %d attempts = %d, want 1", i, got)
		}
	}
	cellCount := len(spec.Workloads) * len(spec.Points)
	if got := int(sim.runs.Load()); got != cellCount {
		t.Errorf("protected simulations = %d, want %d (resume must only simulate missing cells)", got, cellCount)
	}
	if stdout.String() != want {
		t.Error("assembly stdout differs from the single-host run after a retry")
	}
	if rep.Sims != 0 {
		t.Errorf("assembly sims = %d, want 0", rep.Sims)
	}
	if rep.Pool.Relaunches != 1 {
		t.Errorf("relaunches = %d, want 1", rep.Pool.Relaunches)
	}
	if h := rep.Shards[1].History; len(h) != 2 || h[0].Err == "" || h[1].Err != "" {
		t.Errorf("shard 1 history = %+v, want a killed attempt, then a win", h)
	}
	if !strings.Contains(log.String(), "store resumes") {
		t.Errorf("retry not surfaced on stderr:\n%s", log.String())
	}
}

// brokenWorker always fails after printing a diagnostic, so retries
// can never save it.
type brokenWorker struct{}

func (brokenWorker) Name() string { return "broken" }

func (brokenWorker) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	fmt.Fprintln(stderr, "panic: disk on fire")
	return errors.New("exit status 2")
}

// TestShardFailureExhaustsRetries asserts a shard that keeps dying
// fails the sweep after its retry budget, carrying the worker's
// stderr tail in the error.
func TestShardFailureExhaustsRetries(t *testing.T) {
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    2,
		Pool:      fakePool(2, brokenWorker{}),
		StoreRoot: t.TempDir(),
		Retries:   1,
	})
	if err == nil {
		t.Fatal("sweep succeeded with a permanently broken runner")
	}
	if !strings.Contains(err.Error(), "failed after 2 attempt(s)") {
		t.Errorf("error does not mention the retry budget: %v", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("error does not carry the stderr tail: %v", err)
	}
	// The first shard to exhaust its budget cancels the other, which
	// may then stop after any number of attempts — but at least one
	// shard must have burned the full budget.
	exhausted := 0
	for i := range rep.Shards {
		if rep.Shards[i].Attempts == 2 {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Errorf("no shard reached 2 attempts: %+v", rep.Shards)
	}
}

// muteWorker succeeds for shard runs but ignores -progress-json, like
// a wrapper script that swallows stderr.
type muteWorker struct{ fakeWorker }

func (m *muteWorker) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	return m.fakeWorker.Run(ctx, argv, stdout, io.Discard)
}

// TestAssemblyWithoutEventsFails asserts an assembly pass that emits
// no protocol events is an error, not a vacuous misses=0 success: the
// zero-simulation contract was never actually checked.
func TestAssemblyWithoutEventsFails(t *testing.T) {
	spec := orchSpec()
	worker := &fakeWorker{t: t, spec: spec, sim: campaign.Default(), dieShard: -1}
	mute := &muteWorker{fakeWorker{t: t, spec: spec, sim: campaign.Default(), dieShard: -1}}
	_, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    2,
		Pool:      fakePool(2, worker),
		assembler: mute,
		StoreRoot: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "no progress events") {
		t.Errorf("silent assembly accepted: %v", err)
	}
}

// idleShardWorker runs every attempt on its fakeWorker except those of
// one shard, which exit 0 without running a cell — a campaign command
// that silently did nothing.
type idleShardWorker struct {
	*fakeWorker
	idleShard string // exact -shard value of the idle shard
}

func (w idleShardWorker) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	if f, err := parseWorkerArgv(argv); err == nil && f.Shard == w.idleShard {
		return nil
	}
	return w.fakeWorker.Run(ctx, argv, stdout, stderr)
}

// TestIncompleteAssemblyFails asserts a sweep whose shards did not
// cover the grid fails instead of passing off assembly-time
// simulations as a zero-simulation assembly: one shard's worker exits
// 0 without running its cells, so assembly must simulate them.
func TestIncompleteAssemblyFails(t *testing.T) {
	worker := &fakeWorker{t: t, spec: orchSpec(), sim: campaign.Default(), dieShard: -1}
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    3,
		Pool:      fakePool(3, idleShardWorker{fakeWorker: worker, idleShard: "1/3"}),
		assembler: worker,
		StoreRoot: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "the shards did not cover the grid") {
		t.Fatalf("incomplete sweep accepted: %v", err)
	}
	if rep == nil || rep.Sims == 0 || !strings.Contains(err.Error(), fmt.Sprintf("assembly simulated %d cell(s)", rep.Sims)) {
		t.Errorf("error %q does not report the assembly's %+v simulations", err, rep)
	}
}

// TestOrchestratedTelemetry sweeps with -telemetry in the worker argv:
// every shard writes its sidecars into the one store, so the store's
// telemetry directory holds exactly one sidecar per protected cell,
// each named by its cell's fingerprint and reconciling against its
// committed instructions.
func TestOrchestratedTelemetry(t *testing.T) {
	spec := orchSpec()
	worker := &fakeWorker{t: t, spec: spec, sim: campaign.Default(), dieShard: -1}
	fwd, err := WorkerFlags{Telemetry: true, TelemetryInterval: 500}.TelemetryArgs()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	var log bytes.Buffer
	rep, err := Run(context.Background(), Options{
		Argv:      append([]string{"campaign"}, fwd...),
		Shards:    3,
		Pool:      fakePool(3, worker),
		assembler: worker,
		StoreRoot: root,
		Stderr:    &log,
	})
	if err != nil {
		t.Fatalf("orchestrated run failed: %v\n%s", err, log.String())
	}
	if rep.Sims != 0 {
		t.Errorf("assembly sims = %d, want 0", rep.Sims)
	}
	cellCount := len(spec.Workloads) * len(spec.Points)
	series, err := telemetry.LoadDir(filepath.Join(root, telemetry.SidecarDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != cellCount {
		t.Fatalf("%d sidecars for %d protected cells", len(series), cellCount)
	}
	ref, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := range ref.Results {
		want[campaign.CellKey(&ref.Results[i]).Fingerprint()] = true
	}
	for _, s := range series {
		if !want[s.Header.Fingerprint] {
			t.Errorf("sidecar %s names no protected cell of the sweep", s.Header.Fingerprint)
		}
		delete(want, s.Header.Fingerprint)
		if err := telemetry.Reconcile(s); err != nil {
			t.Error(err)
		}
	}
	checkOneStore(t, root)
}

// TestRunValidatesOptions covers the option-level refusals.
func TestRunValidatesOptions(t *testing.T) {
	pool := fakePool(1, brokenWorker{})
	cases := []Options{
		{Shards: 2, StoreRoot: "x", Pool: pool},                                      // no argv
		{Argv: []string{"c"}, Shards: 0, StoreRoot: "x", Pool: pool},                 // no shards
		{Argv: []string{"c"}, Shards: 2, Pool: pool},                                 // no store root
		{Argv: []string{"c"}, Shards: 2, StoreRoot: "x"},                             // no pool
		{Argv: []string{"c"}, Shards: 2, StoreRoot: "x", Pool: testPool(nil, false)}, // hostless pool
	}
	for i, o := range cases {
		if _, err := Run(context.Background(), o); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
}

// TestLocalRunner exercises the real subprocess runner's stream
// wiring and exit-code mapping.
func TestLocalRunner(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := Local{}.Run(context.Background(), []string{"sh", "-c", "echo out; echo err 1>&2"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != "out\n" || stderr.String() != "err\n" {
		t.Errorf("streams miswired: stdout %q stderr %q", stdout.String(), stderr.String())
	}
	if err := (Local{}).Run(context.Background(), []string{"sh", "-c", "exit 3"}, io.Discard, io.Discard); err == nil {
		t.Error("non-zero exit reported as success")
	}
}

// TestShellJoin pins the ssh-side quoting.
func TestShellJoin(t *testing.T) {
	got := shellJoin([]string{"./experiments", "-run", "fig 7", "it's"})
	want := `'./experiments' '-run' 'fig 7' 'it'\''s'`
	if got != want {
		t.Errorf("shellJoin = %s, want %s", got, want)
	}
}

// TestSSHArgs pins the ssh argv shape — options, then `--` BEFORE the
// destination (OpenSSH stops option parsing at the destination, so a
// later `--` would become the first word of the remote command and
// the remote shell would reject it) — and proves the remote command
// string actually executes under a POSIX shell.
func TestSSHArgs(t *testing.T) {
	s := SSH{Host: "hosta", Options: []string{"-o", "BatchMode=yes"}, Dir: "/w"}
	got := s.args([]string{"./experiments", "-run", "fig7"})
	want := []string{"-o", "BatchMode=yes", "--", "hosta", `cd '/w' && './experiments' '-run' 'fig7'`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ssh args = %q, want %q", got, want)
	}

	// What ssh hands the remote shell must run as `sh -c <string>`.
	remote := SSH{Host: "h"}.args([]string{"echo", "remote ok"})
	var out bytes.Buffer
	if err := (Local{}).Run(context.Background(), []string{"sh", "-c", remote[len(remote)-1]}, &out, io.Discard); err != nil {
		t.Fatalf("remote command string rejected by sh: %v", err)
	}
	if out.String() != "remote ok\n" {
		t.Errorf("remote command output = %q", out.String())
	}
}
