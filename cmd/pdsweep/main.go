// Command pdsweep runs a sharded campaign sweep from one command: it
// runs N shard workers over a pool of hosts, all writing one result
// store, streams a live aggregate of their progress, relaunches failed
// or interrupted shards (the store makes resume free), and when the
// last shard lands assembles the final output from the store — stdout
// byte-identical to a single-host run, with zero simulations during
// assembly.
//
// Usage:
//
//	pdsweep -n 3 go run ./cmd/experiments -run fig7
//	pdsweep -n 3 -compact -store-root /tmp/sweep go run ./cmd/experiments -run fig7
//	pdsweep -n 4 -retries 2 -store-root /tmp/sweep ./experiments -run fig9
//	pdsweep -n 2 -hosts hosta,hostb -store-root /shared/sweep ./experiments -run fig7
//	pdsweep -n 6 -hosts local,local,ssh:hostb -store-root /shared/sweep ./experiments -run fig7
//	pdsweep -n 4 -hosts local,local,local,local -dry-run ./experiments -run fig7
//	pdsweep -n 3 go run ./cmd/hetsim -workload bitcount -fault-targets all
//	pdsweep -n 2 -telemetry -trace sweep.json -store-root /tmp/sweep go run ./cmd/experiments -run fig7
//
// Without -hosts the pool is -n local subprocess workers, each with an
// even share of the machine's cores, and no stealing. -hosts names the
// pool instead ('local', 'ssh:HOST', or a bare ssh host; list a host
// twice to run two workers on it). Hosts are health-checked before
// their first lease and after any worker failure, a dead host is
// quarantined and its shard moves to another host (the store makes
// that a resume), and with -steal an idle host runs a duplicate
// attempt of the slowest shard; the duplicate serves the cells its
// sibling already stored as hits, the first attempt to finish wins,
// and the loser is cancelled, so assembly stays byte-identical to a
// single-host run.
//
// Everything after the flags is the campaign command. pdsweep appends
// the shard, store and progress flags of the worker-flag table
// (orchestrator.WorkerFlags) for each shard worker, and the store and
// progress flags for the assembly pass, so the command must be a
// cmd/experiments or cmd/hetsim invocation (or anything speaking the
// same flags and progress protocol). Shard workers' stdout is
// discarded — their figures are partial by construction; only the
// assembly pass's stdout is printed.
//
// -store-root is the sweep's one result store (a temp directory
// removed on success when the flag is omitted): every shard attempt
// and the assembly pass run with -store set to it, and -telemetry
// sidecars land in its telemetry directory. Re-running pdsweep with
// the same -store-root resumes a previously interrupted sweep. A store
// root written by an older pdsweep, which kept per-shard stores and a
// merged one beneath it, is not resumed from; its merged directory is
// an ordinary store that -store-root can name. With ssh hosts the
// store root must name a filesystem path shared between this machine
// and every host, and the campaign command must be runnable both on
// the hosts (shard workers) and locally — the final assembly pass
// always executes on the orchestrating machine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"paradet/internal/obs"
	"paradet/internal/obs/telemetry"
	"paradet/internal/orchestrator"
	"paradet/internal/resultstore"
)

// telemetryPIDBase offsets counter-track process IDs in the sweep
// trace so they never collide with shard-numbered slice processes.
const telemetryPIDBase = 1000

// tick is the minimum interval between progress lines on stderr.
const tick = time.Second

func main() {
	n := flag.Int("n", 2, "number of shard workers to split the sweep across")
	retries := flag.Int("retries", 1, "relaunches allowed per shard before the sweep fails")
	storeRoot := flag.String("store-root", "", "the sweep's result store, written by every shard worker (default: temp dir, removed on success); reuse it to resume an interrupted sweep; with ssh hosts it must be on a shared filesystem")
	hostsArg := flag.String("hosts", "", "comma-separated pool hosts ('local' or 'ssh:HOST'; a bare word is an ssh host; list a host twice to run two workers on it) (default: -n local workers, no stealing): shards lease health-checked hosts, dead hosts are quarantined and their shards move, idle hosts steal the slowest shard")
	steal := flag.Bool("steal", true, "with -hosts, let idle hosts run duplicate attempts of the slowest shard (first finish wins; cells either attempt stored are hits for the other)")
	healthTimeout := flag.Duration("health-timeout", 5*time.Second, "per-probe liveness timeout (a host failing its probes is quarantined)")
	dryRun := flag.Bool("dry-run", false, "print the planned shard-to-host assignment and store, then exit without launching anything")
	compact := flag.Bool("compact", false, "pack the store into a segment file before assembly (keep -store-root to reuse the packed store)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event timeline of the sweep to this file (open in chrome://tracing or Perfetto): shards as processes, cells as slices")
	var sweep orchestrator.WorkerFlags
	sweep.RegisterSweep(flag.CommandLine)
	obsFlags := obs.Register()
	flag.Parse()

	argv := flag.Args()
	if len(argv) == 0 {
		fail(fmt.Errorf("no campaign command (try: pdsweep -n 3 go run ./cmd/experiments -run fig7)"))
	}
	// Shard workers write sidecars into the store's telemetry
	// directory. The assembly pass inherits the flags too, harmlessly:
	// it is all store hits, and warm cells never write sidecars.
	telemArgs, err := sweep.TelemetryArgs()
	if err != nil {
		fail(err)
	}
	argv = append(argv, telemArgs...)
	if *n < 1 {
		fail(fmt.Errorf("-n must be >= 1, got %d", *n))
	}
	pool, err := newPool(*hostsArg, *n, *steal, *healthTimeout, *storeRoot != "")
	if err != nil {
		fail(err)
	}

	root := *storeRoot
	cleanup := false
	if root == "" {
		if *dryRun {
			root = "<temp dir>" // the plan never creates it
		} else {
			root, err = os.MkdirTemp("", "pdsweep-")
			if err != nil {
				fail(err)
			}
			cleanup = true
		}
	}

	if *dryRun {
		plan, err := orchestrator.Plan(orchestrator.Options{
			Argv: argv, Shards: *n, Pool: pool,
			StoreRoot: root, Retries: *retries,
		})
		if err != nil {
			fail(err)
		}
		fmt.Print(plan)
		return
	}

	// Live aggregate ticker: one line per tick, plus milestones the
	// throttle must not eat (handled by the final summary). Every
	// snapshot is also kept (unthrottled) for the /progress endpoint.
	var mu sync.Mutex
	var lastPrint time.Time
	var lastSnap orchestrator.Snapshot
	progress := func(s orchestrator.Snapshot) {
		mu.Lock()
		defer mu.Unlock()
		lastSnap = s
		if time.Since(lastPrint) < tick {
			return
		}
		lastPrint = time.Now()
		line := fmt.Sprintf("cells %d/%d · sims %d · hits %d", s.Done, s.Total, s.Sims, s.Hits)
		if s.EtaMS > 0 {
			line += fmt.Sprintf(" · eta %s", (time.Duration(s.EtaMS) * time.Millisecond).Round(time.Second))
		}
		if s.Slowest >= 0 {
			line += fmt.Sprintf(" · shard %d slowest", s.Slowest)
		}
		if s.Steals > 0 {
			line += fmt.Sprintf(" · steals %d", s.Steals)
		}
		if s.Quarantined > 0 {
			line += fmt.Sprintf(" · quarantined %d", s.Quarantined)
		}
		fmt.Fprintln(os.Stderr, line)
	}

	stopObs := obsFlags.Start(func() any {
		mu.Lock()
		defer mu.Unlock()
		return lastSnap
	})

	// -trace renders the sweep as a Chrome trace: one process per
	// shard, one duration slice per cell (its own simulation time;
	// store hits are zero-width marks). The file is written on every
	// exit path — a partial timeline of a failed sweep is exactly when
	// you want one. simulated collects the fingerprints of the cells
	// the shards simulated, whose telemetry the trace draws.
	var trace *obs.Trace
	var onEvent func(int, orchestrator.Event)
	simulated := map[string]bool{}
	if *tracePath != "" {
		trace = obs.NewTrace()
		onEvent = func(shard int, e orchestrator.Event) {
			trace.ProcessName(shard, fmt.Sprintf("shard %d", shard))
			trace.Slice(shard, fmt.Sprintf("%s/%s[%s]", e.Workload, e.Point, e.Scheme),
				(e.ElapsedMS-e.SimMS)*1000, e.SimMS*1000,
				map[string]any{"cell": e.Cell, "hit": e.Hit})
			if !e.Hit && resultstore.ValidFingerprint(e.FP) {
				simulated[e.FP] = true
			}
		}
	}
	onExit = func() {
		if trace != nil {
			if err := trace.WriteFile(*tracePath); err != nil {
				fmt.Fprintln(os.Stderr, "pdsweep: trace:", err)
			} else {
				slices, samples := trace.Counts()
				fmt.Fprintf(os.Stderr, "pdsweep: trace written to %s (%d slice(s), %d counter sample(s))\n", *tracePath, slices, samples)
			}
			trace = nil
		}
		stopObs()
	}

	// Ctrl-C cancels every worker; finished cells stay in the store, so
	// the same pdsweep command with -store-root resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	rep, err := orchestrator.Run(ctx, orchestrator.Options{
		Argv:      argv,
		Shards:    *n,
		Pool:      pool,
		StoreRoot: root,
		Retries:   *retries,
		Compact:   *compact,
		Progress:  progress,
		OnEvent:   onEvent,
		Stdout:    os.Stdout,
		Stderr:    os.Stderr,
	})
	if err != nil {
		if cleanup {
			if rep != nil {
				// Workers ran: the store makes a re-run with
				// -store-root resume instead of redo.
				fmt.Fprintf(os.Stderr, "pdsweep: store kept at %s for resume\n", root)
			} else {
				os.RemoveAll(root) // nothing ever ran; don't leak the temp dir
			}
		}
		fail(err)
	}

	// CI greps this exact shape; misses is always 0 here (the
	// orchestrator fails the sweep otherwise).
	compacted := ""
	if rep.Compact != nil {
		compacted = fmt.Sprintf(" · compacted %d cell(s)", rep.Compact.Packed)
	}
	p := rep.Pool
	fmt.Fprintf(os.Stderr, "pdsweep: %d shard(s) ok, %d retr%s · assembled cells=%d hits=%d misses=%d%s"+
		" · pool hosts=%d leases=%d steals=%d stolen-wins=%d relaunches=%d quarantined=%d · %.1fs\n",
		*n, p.Relaunches, plural(p.Relaunches, "y", "ies"), rep.Cells, rep.Hits, rep.Sims, compacted,
		len(p.Hosts), p.Leases, p.Steals, p.StolenWins, p.Relaunches, p.Quarantined, time.Since(start).Seconds())

	// With both -telemetry and -trace, the sweep timeline gains one
	// counter-track process group per protected cell this sweep
	// simulated (IPC, occupancies, stall breakdown), rendered from its
	// sidecar in the store.
	if sweep.Telemetry && trace != nil {
		series, err := sweepSeries(filepath.Join(root, telemetry.SidecarDirName), simulated)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdsweep: telemetry:", err)
		} else {
			for i, s := range series {
				obs.TelemetryTracks(trace, telemetryPIDBase+i, s)
			}
			fmt.Fprintf(os.Stderr, "pdsweep: %d telemetry counter track group(s) added to trace\n", len(series))
		}
	}
	onExit()
	if cleanup {
		os.RemoveAll(root)
	}
}

// sweepSeries loads the telemetry sidecars dir/<fp>.jsonl of the cells
// a sweep simulated, sorted by fingerprint. Sidecars that earlier
// sweeps left in the same store are not read; a simulated cell without
// a sidecar (one that is not protected) is skipped.
func sweepSeries(dir string, simulated map[string]bool) ([]*telemetry.Series, error) {
	fps := make([]string, 0, len(simulated))
	for fp := range simulated {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	var out []*telemetry.Series
	for _, fp := range fps {
		s, err := telemetry.ReadFile(filepath.Join(dir, fp+".jsonl"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// newPool builds the sweep's host pool from -hosts. Entries are
// "local" (a subprocess worker) or "ssh:HOST"; a bare word is also an
// ssh host. Without -hosts the pool is n local hosts and stealing
// stays off: n workers at once, no duplicate attempts. Local hosts
// split the machine's cores evenly: n workers each defaulting to a
// GOMAXPROCS-wide simulation pool would oversubscribe it (the assembly
// pass runs uncapped — it is all store hits). Ssh hosts need an
// explicit store root: a local temp root cannot serve them, because
// they would write the store on their own hosts while the assembly
// reads an empty local directory.
func newPool(hosts string, n int, steal bool, healthTimeout time.Duration, haveStoreRoot bool) (*orchestrator.Pool, error) {
	var entries []string
	if hosts == "" {
		for i := 0; i < n; i++ {
			entries = append(entries, "local")
		}
		steal = false
	} else {
		for _, h := range strings.Split(hosts, ",") {
			if h = strings.TrimSpace(h); h != "" {
				entries = append(entries, h)
			}
		}
		if len(entries) == 0 {
			return nil, fmt.Errorf("-hosts lists no hosts")
		}
	}
	locals := 0
	for _, e := range entries {
		if e == "local" {
			locals++
		}
	}
	share := 1
	if locals > 0 {
		share = max(1, runtime.NumCPU()/locals)
	}
	pool := &orchestrator.Pool{Steal: steal, HealthTimeout: healthTimeout}
	for i, e := range entries {
		switch {
		case e == "local":
			pool.Hosts = append(pool.Hosts, orchestrator.Local{
				Label: fmt.Sprintf("local%d", i),
				Env:   []string{fmt.Sprintf("GOMAXPROCS=%d", share)},
			})
		case !haveStoreRoot:
			return nil, fmt.Errorf("ssh hosts need an explicit -store-root on a filesystem shared with the hosts")
		default:
			pool.Hosts = append(pool.Hosts, orchestrator.SSH{Host: strings.TrimPrefix(e, "ssh:")})
		}
	}
	return pool, nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// onExit flushes observability outputs (trace file, ledger, debug
// endpoint) before the process exits; fail routes through it so error
// exits keep their partial trace and every ledger line.
var onExit = func() {}

func fail(err error) {
	onExit()
	fmt.Fprintln(os.Stderr, "pdsweep:", err)
	os.Exit(1)
}
