package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paradet/internal/campaign"
)

// poolHost wraps a worker Runner as a leasable pool host with
// scriptable probe and launch failures. The pool's liveness probe is
// the argv {"probe"} (set via Pool.probeArgv in every test here), so
// the fake never confuses probes with shard attempts.
type poolHost struct {
	name  string
	inner Runner

	probes atomic.Int32
	// failProbe, when non-nil, decides whether the n-th probe (1-based)
	// fails.
	failProbe func(n int) bool

	launches atomic.Int32
	// failLaunch, when non-nil, returns an error for the n-th shard
	// attempt (1-based) instead of running the inner worker.
	failLaunch func(n int) error
}

func (h *poolHost) Name() string { return h.name }

func (h *poolHost) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	if len(argv) == 1 && argv[0] == "probe" {
		n := int(h.probes.Add(1))
		if h.failProbe != nil && h.failProbe(n) {
			return errors.New("probe refused")
		}
		return nil
	}
	n := int(h.launches.Add(1))
	if h.failLaunch != nil {
		if err := h.failLaunch(n); err != nil {
			return err
		}
	}
	return h.inner.Run(ctx, argv, stdout, stderr)
}

// noSleep replaces the pool's backoff clock so quarantine tests never
// wait on real time; it records the requested durations.
type noSleep struct {
	mu   sync.Mutex
	reqs []time.Duration
}

func (s *noSleep) sleep(ctx context.Context, d time.Duration) {
	s.mu.Lock()
	s.reqs = append(s.reqs, d)
	s.mu.Unlock()
}

func (s *noSleep) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reqs)
}

func testPool(hosts []Runner, steal bool) *Pool {
	p := &Pool{
		Hosts:     hosts,
		probeArgv: []string{"probe"},
		Steal:     steal,
		// Any ETA is worth stealing in tests; the fakes control the
		// clocks, so nothing here depends on real time.
		stealMinEta: time.Millisecond,
	}
	return p
}

// TestPoolLeaseAccounting runs 4 shards over 2 healthy hosts: every
// shard leases exactly one host, lease counts balance, each host is
// probed once (a completed lease vouches for the next), and the
// assembled output is byte-identical to a single-host run with every
// cell simulated exactly once.
func TestPoolLeaseAccounting(t *testing.T) {
	spec := orchSpec()
	ref, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutcome(t, ref) + "\n"

	sim := &countingSim{Simulator: campaign.Default()}
	worker := &fakeWorker{t: t, spec: spec, sim: sim, dieShard: -1}
	hosts := []Runner{
		&poolHost{name: "hostA", inner: worker},
		&poolHost{name: "hostB", inner: worker},
	}
	var stdout, log bytes.Buffer
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    4,
		Pool:      testPool(hosts, false),
		assembler: worker,
		StoreRoot: t.TempDir(),
		Stdout:    &stdout,
		Stderr:    &log,
	})
	if err != nil {
		t.Fatalf("pool run failed: %v\n%s", err, log.String())
	}
	if rep.Pool.Leases != 4 {
		t.Errorf("pool leases = %d, want 4", rep.Pool.Leases)
	}
	sum := 0
	for _, h := range rep.Pool.Hosts {
		sum += h.Leases
		if h.Quarantined || h.Failures != 0 {
			t.Errorf("host %s report = %+v, want healthy", h.Host, h)
		}
	}
	if sum != rep.Pool.Leases {
		t.Errorf("per-host leases sum to %d, pool counted %d", sum, rep.Pool.Leases)
	}
	if rep.Pool.Steals != 0 || rep.Pool.Relaunches != 0 || rep.Pool.Quarantined != 0 {
		t.Errorf("unexpected elastic activity: %+v", rep.Pool)
	}
	for i := range rep.Shards {
		if rep.Shards[i].Attempts != 1 || len(rep.Shards[i].History) != 1 {
			t.Errorf("shard %d attempts = %d history = %+v, want one clean launch", i, rep.Shards[i].Attempts, rep.Shards[i].History)
		}
		if h := rep.Shards[i].History; len(h) == 1 && (h[0].Err != "" || h[0].Stolen) {
			t.Errorf("shard %d history = %+v, want a plain win", i, h[0])
		}
	}
	for _, h := range hosts {
		if got := h.(*poolHost).probes.Load(); got != 1 {
			t.Errorf("host %s probed %d time(s), want 1 (a finished lease vouches for the next)", h.Name(), got)
		}
	}
	if stdout.String() != want {
		t.Error("pool assembly stdout differs from the single-host run")
	}
	cellCount := len(spec.Workloads) * len(spec.Points)
	if got := int(sim.runs.Load()); got != cellCount {
		t.Errorf("protected simulations = %d, want %d", got, cellCount)
	}
	if rep.Sims != 0 {
		t.Errorf("assembly sims = %d, want 0", rep.Sims)
	}
}

// TestPoolQuarantineAfterProbeFailures gives the pool one host that
// never answers probes: it must be quarantined after healthProbes
// consecutive failures (with the backoff clock consulted, not real
// time), lease nothing, and leave the sweep to the healthy host.
func TestPoolQuarantineAfterProbeFailures(t *testing.T) {
	spec := orchSpec()
	worker := &fakeWorker{t: t, spec: spec, sim: campaign.Default(), dieShard: -1}
	dead := &poolHost{name: "dead", inner: worker, failProbe: func(int) bool { return true }}
	live := &poolHost{name: "live", inner: worker}
	clock := &noSleep{}
	pool := testPool([]Runner{dead, live}, false)
	pool.sleep = clock.sleep

	var log bytes.Buffer
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    2,
		Pool:      pool,
		assembler: worker,
		StoreRoot: t.TempDir(),
		Stderr:    &log,
	})
	if err != nil {
		t.Fatalf("pool run failed: %v\n%s", err, log.String())
	}
	if rep.Pool.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", rep.Pool.Quarantined)
	}
	for _, h := range rep.Pool.Hosts {
		switch h.Host {
		case "dead":
			if !h.Quarantined || h.Leases != 0 {
				t.Errorf("dead host report = %+v, want quarantined with 0 leases", h)
			}
		case "live":
			if h.Quarantined || h.Leases != 2 {
				t.Errorf("live host report = %+v, want 2 leases", h)
			}
		}
	}
	if got := dead.probes.Load(); got != healthProbes {
		t.Errorf("dead host probed %d time(s), want %d", got, healthProbes)
	}
	// One backoff between the two probes, against the injected clock.
	clock.mu.Lock()
	reqs := clock.reqs
	clock.mu.Unlock()
	if len(reqs) != healthProbes-1 || reqs[0] != healthBackoff {
		t.Errorf("backoff clock requests = %v, want one of %s", reqs, healthBackoff)
	}
	if rep.Sims != 0 {
		t.Errorf("assembly sims = %d, want 0", rep.Sims)
	}
	if !strings.Contains(log.String(), "quarantined") {
		t.Errorf("quarantine not surfaced on stderr:\n%s", log.String())
	}
}

// TestPoolAllHostsQuarantined asserts the sweep fails loudly, rather
// than hanging, when every host flunks its health probes.
func TestPoolAllHostsQuarantined(t *testing.T) {
	worker := &fakeWorker{t: t, spec: orchSpec(), sim: campaign.Default(), dieShard: -1}
	bad := func(name string) *poolHost {
		return &poolHost{name: name, inner: worker, failProbe: func(int) bool { return true }}
	}
	pool := testPool([]Runner{bad("h0"), bad("h1")}, false)
	pool.sleep = (&noSleep{}).sleep
	_, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    2,
		Pool:      pool,
		StoreRoot: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Errorf("all-hosts-dead sweep returned %v, want a quarantine error", err)
	}
}

// TestPoolRelaunchMovesHost kills the only shard's first attempt on
// its host: the relaunch must prefer the other (idle) host rather than
// retrying the one that just failed — a store-backed resume — and the
// final output must stay byte-identical with no cell simulated twice
// (the failed launch never ran a worker). One shard keeps the scene
// deterministic: the healthy host is always free when the relaunch
// dispatches.
func TestPoolRelaunchMovesHost(t *testing.T) {
	spec := orchSpec()
	ref, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutcome(t, ref) + "\n"

	sim := &countingSim{Simulator: campaign.Default()}
	worker := &fakeWorker{t: t, spec: spec, sim: sim, dieShard: -1}
	// Probes pass; the first (and only) launch crashes before the
	// worker starts.
	flaky := &poolHost{
		name: "flaky", inner: worker,
		failLaunch: func(n int) error { return errors.New("host crashed") },
	}
	steady := &poolHost{name: "steady", inner: worker}
	pool := testPool([]Runner{flaky, steady}, false)
	pool.sleep = (&noSleep{}).sleep

	var stdout, log bytes.Buffer
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    1,
		Pool:      pool,
		assembler: worker,
		StoreRoot: t.TempDir(),
		Retries:   1,
		Stdout:    &stdout,
		Stderr:    &log,
	})
	if err != nil {
		t.Fatalf("pool run failed: %v\n%s", err, log.String())
	}
	if rep.Pool.Relaunches != 1 {
		t.Errorf("relaunches = %d, want 1", rep.Pool.Relaunches)
	}
	// The shard's history must show the move: the crash on flaky, then
	// the win on steady — the relaunch must not go back to the host
	// that just failed while another sits idle.
	h := rep.Shards[0].History
	if len(h) != 2 ||
		h[0].Runner != "flaky" || h[0].Err == "" ||
		h[1].Runner != "steady" || h[1].Err != "" {
		t.Errorf("shard 0 history = %+v, want crash-on-flaky then win-on-steady", h)
	}
	if stdout.String() != want {
		t.Error("assembly stdout differs after a cross-host relaunch")
	}
	cellCount := len(spec.Workloads) * len(spec.Points)
	if got := int(sim.runs.Load()); got != cellCount {
		t.Errorf("protected simulations = %d, want %d (the dead launch never simulated)", got, cellCount)
	}
	if !strings.Contains(log.String(), "moving to another host") {
		t.Errorf("relaunch not surfaced on stderr:\n%s", log.String())
	}
}

// hangingPrimary runs the first attempt of hangShard by reporting fake
// slow progress (a huge ETA) and then blocking until cancelled — the
// deterministic stand-in for a laggard host. Every other attempt
// (other shards, steal duplicates) runs the real inner worker. If
// simulateFirst is set, the laggard first runs its shard to completion
// (writing every cell to the store) before pretending to be stuck, so
// the cells it stored are there for the duplicate to hit.
type hangingPrimary struct {
	inner         *fakeWorker
	hangShard     string // exact -shard value of the attempt to hang
	simulateFirst bool
	hung          atomic.Bool
}

func (h *hangingPrimary) Name() string { return "hanging" }

func (h *hangingPrimary) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	w, err := parseWorkerArgv(argv)
	if err != nil {
		return err
	}
	if w.Shard != h.hangShard || !h.hung.CompareAndSwap(false, true) {
		return h.inner.Run(ctx, argv, stdout, stderr)
	}
	if h.simulateFirst {
		if err := h.inner.Run(ctx, argv, stdout, io.Discard); err != nil {
			return err
		}
	}
	// Report being one cell into a long shard, then stall. The ETA is
	// fabricated: no real time passes in this test.
	sh, err := campaign.ParseShard(w.Shard)
	if err != nil {
		return err
	}
	evt := Event{V: ProtocolVersion, Shard: sh.Index, Shards: sh.Count,
		Done: 1, Total: 100, Sims: 1, Workload: "stuck", Point: "p", Scheme: "protected",
		ElapsedMS: 10, EtaMS: 600_000}
	line, _ := json.Marshal(evt)
	stderr.Write(append(line, '\n'))
	<-ctx.Done()
	return ctx.Err()
}

// TestPoolStealWinnerCancelsLoser is the elastic tentpole in one
// deterministic scene: shard 1's primary stores its cells and then
// stalls with a huge self-reported ETA, the host finishing shard 0
// goes idle and steals a duplicate attempt, the duplicate wins, and
// the stalled primary is cancelled. The duplicate shares the store, so
// it serves the cells the loser stored as hits: every grid cell is
// simulated exactly once, with assembly byte-identical and zero
// simulations.
func TestPoolStealWinnerCancelsLoser(t *testing.T) {
	spec := orchSpec()
	ref, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutcome(t, ref) + "\n"

	root := t.TempDir()
	sim := &countingSim{Simulator: campaign.Default()}
	worker := &fakeWorker{t: t, spec: spec, sim: sim, dieShard: -1}
	hang := &hangingPrimary{inner: worker, hangShard: "1/2", simulateFirst: true}
	hosts := []Runner{
		&poolHost{name: "hostA", inner: hang},
		&poolHost{name: "hostB", inner: hang},
	}
	var stdout, log bytes.Buffer
	var snaps []Snapshot
	var mu sync.Mutex
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    2,
		Pool:      testPool(hosts, true),
		assembler: worker,
		StoreRoot: root,
		Progress: func(s Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		},
		Stdout: &stdout,
		Stderr: &log,
	})
	if err != nil {
		t.Fatalf("pool run failed: %v\n%s", err, log.String())
	}
	if rep.Pool.Steals != 1 {
		t.Fatalf("steals = %d, want 1\n%s", rep.Pool.Steals, log.String())
	}
	if rep.Pool.StolenWins != 1 {
		t.Errorf("stolen wins = %d, want 1 (the duplicate must beat the stalled primary)", rep.Pool.StolenWins)
	}
	// Shard 1's history: the stolen duplicate won, the primary was
	// cancelled as the loser.
	var win, lose *Attempt
	for i := range rep.Shards[1].History {
		a := &rep.Shards[1].History[i]
		if a.Err == "" {
			win = a
		} else {
			lose = a
		}
	}
	if win == nil || !win.Stolen {
		t.Errorf("winning attempt = %+v, want a stolen win", win)
	}
	if lose == nil || lose.Stolen || !strings.Contains(lose.Err, "cancelled") {
		t.Errorf("losing attempt = %+v, want the cancelled primary", lose)
	}
	// The duplicate re-simulates nothing the loser already stored.
	cellCount := len(spec.Workloads) * len(spec.Points)
	if got := int(sim.runs.Load()); got != cellCount {
		t.Errorf("protected simulations = %d, want %d (one per grid cell)", got, cellCount)
	}
	checkOneStore(t, root)
	if stdout.String() != want {
		t.Error("assembly stdout differs from the single-host run after a steal")
	}
	if rep.Sims != 0 {
		t.Errorf("assembly sims = %d, want 0", rep.Sims)
	}
	mu.Lock()
	sawSteal := false
	for _, s := range snaps {
		if s.Steals > 0 {
			sawSteal = true
		}
	}
	mu.Unlock()
	if !sawSteal {
		t.Error("no progress snapshot carried the steal count")
	}
	if !strings.Contains(log.String(), "stealing shard 1") {
		t.Errorf("steal not surfaced on stderr:\n%s", log.String())
	}
}

// slowProbeHost blocks its liveness probe until the probe's context is
// cancelled (closing started on first probe), and runs shard attempts
// on the inner worker. It models a healthy-but-slow host whose
// pre-lease probe is still in flight when a sibling attempt wins.
type slowProbeHost struct {
	inner   Runner
	started chan struct{}
	once    sync.Once
}

func (h *slowProbeHost) Name() string { return "slowprobe" }

func (h *slowProbeHost) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	if len(argv) == 1 && argv[0] == "probe" {
		h.once.Do(func() { close(h.started) })
		<-ctx.Done()
		return ctx.Err()
	}
	return h.inner.Run(ctx, argv, stdout, stderr)
}

// etaThenFinish runs the primary attempt of its shard by first
// reporting a huge fake ETA (baiting the steal policy), waiting until
// the stolen duplicate's probe is in flight, then completing normally
// — so the primary wins while the duplicate is still probing.
type etaThenFinish struct {
	inner     *fakeWorker
	baitShard string // exact -shard value of the attempt that baits
	probing   <-chan struct{}
	baited    atomic.Bool
}

func (w *etaThenFinish) Name() string { return "bait" }

func (w *etaThenFinish) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	flags, err := parseWorkerArgv(argv)
	if err != nil {
		return err
	}
	if flags.Shard != w.baitShard || !w.baited.CompareAndSwap(false, true) {
		return w.inner.Run(ctx, argv, stdout, stderr)
	}
	sh, err := campaign.ParseShard(flags.Shard)
	if err != nil {
		return err
	}
	evt := Event{V: ProtocolVersion, Shard: sh.Index, Shards: sh.Count,
		Done: 1, Total: 100, Sims: 1, Workload: "slow", Point: "p", Scheme: "protected",
		ElapsedMS: 10, EtaMS: 600_000}
	line, _ := json.Marshal(evt)
	stderr.Write(append(line, '\n'))
	select {
	case <-w.probing:
	case <-ctx.Done():
		return ctx.Err()
	}
	return w.inner.Run(ctx, argv, stdout, stderr)
}

// TestPoolCancelledProbeNotQuarantined: the primary wins while the
// stolen duplicate is still in its pre-lease health probe. Cancelling
// the losing attempt must read as a cancellation, not a probe failure
// — the healthy host stays unquarantined and the history records the
// never-launched duplicate.
func TestPoolCancelledProbeNotQuarantined(t *testing.T) {
	spec := orchSpec()
	worker := &fakeWorker{t: t, spec: spec, sim: campaign.Default(), dieShard: -1}
	probing := make(chan struct{})
	bait := &etaThenFinish{inner: worker, baitShard: "0/1", probing: probing}
	slow := &slowProbeHost{inner: bait, started: probing}
	pool := testPool([]Runner{&poolHost{name: "fast", inner: bait}, slow}, true)
	pool.sleep = (&noSleep{}).sleep

	var log bytes.Buffer
	rep, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    1,
		Pool:      pool,
		assembler: worker,
		StoreRoot: t.TempDir(),
		Stderr:    &log,
	})
	if err != nil {
		t.Fatalf("pool run failed: %v\n%s", err, log.String())
	}
	if rep.Pool.Steals != 1 {
		t.Fatalf("steals = %d, want 1\n%s", rep.Pool.Steals, log.String())
	}
	if rep.Pool.Quarantined != 0 {
		t.Errorf("quarantined = %d, want 0 (a cancelled probe proves nothing about the host)", rep.Pool.Quarantined)
	}
	for _, h := range rep.Pool.Hosts {
		if h.Quarantined {
			t.Errorf("host %s quarantined after a cancelled probe", h.Host)
		}
	}
	var cancelled *Attempt
	for i := range rep.Shards[0].History {
		if a := &rep.Shards[0].History[i]; a.Stolen {
			cancelled = a
		}
	}
	if cancelled == nil || !strings.Contains(cancelled.Err, "cancelled before launch") {
		t.Errorf("stolen attempt = %+v, want a cancelled-before-launch record", cancelled)
	}
	if rep.Pool.StolenWins != 0 {
		t.Errorf("stolen wins = %d, want 0 (the primary won)", rep.Pool.StolenWins)
	}
	if rep.Sims != 0 {
		t.Errorf("assembly sims = %d, want 0", rep.Sims)
	}
}

// TestPoolExhaustionCarriesHistory drives one shard's relaunch budget
// to exhaustion on a pool and asserts the terminal error carries the
// full attempt history — runner names, attempt counts, and the exit
// error of every launch — so a dead sweep is debuggable from CI logs.
func TestPoolExhaustionCarriesHistory(t *testing.T) {
	worker := &fakeWorker{t: t, spec: orchSpec(), sim: campaign.Default(), dieShard: -1}
	crash := errors.New("exit status 7")
	always := &poolHost{name: "crashy", inner: worker, failLaunch: func(int) error { return crash }}
	pool := testPool([]Runner{always}, false)
	pool.sleep = (&noSleep{}).sleep
	_, err := Run(context.Background(), Options{
		Argv:      []string{"campaign"},
		Shards:    1,
		Pool:      pool,
		StoreRoot: t.TempDir(),
		Retries:   2,
	})
	if err == nil {
		t.Fatal("sweep succeeded with a permanently crashing launch")
	}
	for _, wantSub := range []string{"failed after 3 attempt(s)", "attempt history:", "attempt 1 on crashy", "attempt 3 on crashy", "exit status 7"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("exhaustion error missing %q:\n%v", wantSub, err)
		}
	}
}

// TestPlan pins the dry-run plan's load-bearing lines, with and
// without stealing, without touching the filesystem.
func TestPlan(t *testing.T) {
	pool := testPool([]Runner{Local{Label: "local0"}, SSH{Host: "hostb"}}, true)
	got, err := Plan(Options{
		Argv:      []string{"./experiments", "-run", "fig7"},
		Shards:    3,
		Pool:      pool,
		StoreRoot: "/sweep",
		Retries:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wantSub := range []string{
		"plan: 3 shard(s) · retries 1 · store /sweep",
		"pool: 2 host(s)",
		"host 0: local0",
		"host 1: ssh:hostb",
		"shard 0 -> host 0 (local0)\n",
		"shard 2 -> queued",
		"steal on",
		"assembly (local): ./experiments -run fig7 -store /sweep -progress-json",
	} {
		if !strings.Contains(got, wantSub) {
			t.Errorf("plan missing %q:\n%s", wantSub, got)
		}
	}
	// Every shard and the assembly share the one store.
	for _, stale := range []string{"shard0", "merged"} {
		if strings.Contains(got, stale) {
			t.Errorf("plan names a %s store:\n%s", stale, got)
		}
	}

	noSteal, err := Plan(Options{
		Argv:      []string{"c"},
		Shards:    2,
		Pool:      testPool([]Runner{SSH{Host: "a"}}, false),
		StoreRoot: "/s",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wantSub := range []string{
		"steal off",
		"shard 0 -> host 0 (ssh:a)",
		"shard 1 -> queued",
		"assembly (local): c -store /s -progress-json",
	} {
		if !strings.Contains(noSteal, wantSub) {
			t.Errorf("plan missing %q:\n%s", wantSub, noSteal)
		}
	}

	// Plan must refuse what Run refuses.
	if _, err := Plan(Options{Argv: []string{"c"}, Shards: 2, StoreRoot: "/s",
		Pool: testPool(nil, false)}); err == nil {
		t.Error("plan accepted a hostless pool")
	}
	if _, err := Plan(Options{Argv: []string{"c"}, Shards: 2, StoreRoot: "/s"}); err == nil {
		t.Error("plan accepted options without a pool")
	}
}
