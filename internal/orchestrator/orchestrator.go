// Package orchestrator turns a sharded campaign into one supervised
// run: it leases the hosts of a Pool (local subprocesses, ssh hosts,
// or any other Runner) to N shard workers that all write one result
// store, decodes their -progress-json streams into a live aggregate,
// relaunches failed or interrupted shards (resume is free — the store
// keeps every finished cell), and when the last shard lands re-runs
// the campaign against that store, producing stdout byte-identical to
// a single-host run with zero simulations. It also owns the worker
// side of that protocol: the WorkerFlags table the worker CLIs parse
// and the Emitter behind -progress-json. It is the layer cmd/pdsweep
// wraps.
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"paradet/internal/campaign"
	"paradet/internal/obs"
	"paradet/internal/resultstore"
)

// Options configure one orchestrated sweep.
type Options struct {
	// Argv is the campaign command (a cmd/experiments or cmd/hetsim
	// invocation, or anything speaking WorkerFlags and the progress
	// protocol) without the shard, store and progress flags, which the
	// orchestrator appends per worker.
	Argv []string
	// Shards is the number of workers to split the sweep across.
	Shards int
	// Pool runs the workers: health-checked host leases, relaunch of a
	// dead host's shard on another host, and (optionally) duplicate
	// attempts of the slowest shard on idle hosts. Required, with at
	// least one host.
	Pool *Pool
	// StoreRoot is the sweep's one result store: every shard attempt
	// and the assembly pass run with -store StoreRoot, and telemetry
	// sidecars land in its telemetry directory. With ssh runners it
	// must be a shared-filesystem path.
	StoreRoot string
	// Retries is how many times one shard may be relaunched after a
	// failure before the sweep is abandoned.
	Retries int
	// Compact, when set, packs the store into a segment file once the
	// shards finish and before assembly, so the assembly pass (and any
	// later reuse of the store) reads through the packed layout — and
	// proves in the same breath that compaction preserved every cell,
	// because assembly still demands zero simulations.
	Compact bool
	// Progress, when non-nil, observes the live aggregate after every
	// decoded worker event.
	Progress func(Snapshot)
	// OnEvent, when non-nil, receives every decoded shard worker event
	// raw, before aggregation — the seam pdsweep's Chrome-trace
	// exporter hangs off. Calls are serialized (delivery order matches
	// aggregation order) and must return quickly.
	OnEvent func(shard int, e Event)
	// Stdout receives the assembly pass's stdout — the sweep's final
	// output (nil = discard).
	Stdout io.Writer
	// Stderr receives orchestrator notes and the assembly pass's plain
	// stderr (nil = discard).
	Stderr io.Writer

	// assembler runs the final store-backed assembly pass, injectable
	// so tests can substitute an in-process worker (nil = Local; the
	// store root is always reachable from the orchestrator).
	assembler Runner
}

// tailBytes bounds the per-shard stderr tail kept for error reports.
const tailBytes = 4096

// ShardProgress is one worker's latest decoded counters. The JSON
// names back the -debug-addr /progress snapshot.
type ShardProgress struct {
	// Done, Total, Hits and Sims mirror the worker's last Event.
	Done  int `json:"done"`
	Total int `json:"total"`
	Hits  int `json:"hits"`
	Sims  int `json:"sims"`
	// EtaMS is the worker's own remaining-time estimate (0 once done,
	// or from workers predating protocol revision 2).
	EtaMS int64 `json:"eta_ms,omitempty"`
	// Seen marks shards that have reported at least one event.
	Seen bool `json:"seen"`
}

// Snapshot is the live aggregate over every shard, for tickers and
// the /progress endpoint.
type Snapshot struct {
	// Done/Total/Hits/Sims sum the latest per-shard counters.
	Done  int `json:"done"`
	Total int `json:"total"`
	Hits  int `json:"hits"`
	Sims  int `json:"sims"`
	// EtaMS estimates the sweep's remaining wall time: the maximum of
	// the unfinished shards' own estimates, since the sweep ends when
	// its slowest shard does (0 until a revision-2 worker reports).
	EtaMS int64 `json:"eta_ms,omitempty"`
	// Steals counts duplicate shard attempts launched on idle pool
	// hosts; Quarantined counts hosts the health checker removed.
	Steals      int `json:"steals,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	// Shards holds the per-shard detail, indexed by shard. With
	// stealing active each entry reflects the shard's leading attempt
	// (every attempt of a shard works through the same cells; summing
	// them would double-count the grid).
	Shards []ShardProgress `json:"shards"`
	// Slowest is the index of the unfinished shard with the lowest
	// completion fraction, counting shards that have not reported yet
	// as zero progress (-1 once every shard has finished).
	Slowest int `json:"slowest"`
}

// ShardReport is one shard's final accounting.
type ShardReport struct {
	// Shard is the shard index; Runner names where it ran.
	Shard  int
	Runner string
	// Attempts counts launches (1 = no retries needed).
	Attempts int
	// History details every launch — runner, outcome — in completion
	// order, so a failed sweep is debuggable from its logs alone.
	History []Attempt
	// Done, Hits and Sims are the final decoded counters.
	Done, Hits, Sims int
	// Err is the terminal failure after the retry budget, if any.
	Err error
	// Tail is the failed worker's last plain stderr lines.
	Tail string
}

// Report is a completed orchestrated sweep.
type Report struct {
	// Shards holds one entry per shard, indexed by shard.
	Shards []ShardReport
	// Compact is the compaction accounting (nil unless Options.Compact
	// was set).
	Compact *resultstore.CompactStats
	// Pool summarises the host scheduling: leases, steals, relaunches
	// and quarantines.
	Pool PoolReport
	// Cells, Hits and Sims are the assembly pass's final counters;
	// Sims is always 0 on success (the orchestrator fails otherwise).
	Cells, Hits, Sims int
}

// Run executes one orchestrated sweep: launch, supervise, retry,
// compact (with Options.Compact), assemble. It returns the report even
// alongside an error when the failure happened after workers produced
// accountable state.
func Run(ctx context.Context, o Options) (*Report, error) {
	if err := o.resolve(); err != nil {
		return nil, err
	}
	stdout, stderr := o.Stdout, o.Stderr
	if stdout == nil {
		stdout = io.Discard
	}
	if stderr == nil {
		stderr = io.Discard
	}
	st, err := resultstore.Open(o.StoreRoot)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: %w", err)
	}

	rep := &Report{Shards: make([]ShardReport, o.Shards)}
	agg := &aggregator{shards: make([]ShardProgress, o.Shards),
		attempts: make([]map[int]ShardProgress, o.Shards), progress: o.Progress, onEvent: o.OnEvent}

	// Launch the shard workers over the pool's leased hosts. The first
	// shard to exhaust its retries cancels the rest: the store keeps
	// whatever they finished, so a later pdsweep run resumes instead of
	// redoing.
	poolErr := o.Pool.run(ctx, &o, agg, stderr, rep)
	for i := range rep.Shards {
		s := agg.get(i)
		rep.Shards[i].Done, rep.Shards[i].Hits, rep.Shards[i].Sims = s.Done, s.Hits, s.Sims
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	// Separate root causes from collateral: the first shard to exhaust
	// its budget cancels the siblings, whose context-cancelled exits
	// would otherwise bury the one error worth reading.
	var failures []error
	interrupted := 0
	for i := range rep.Shards {
		err := rep.Shards[i].Err
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			interrupted++
		default:
			if tail := rep.Shards[i].Tail; tail != "" {
				err = fmt.Errorf("%w; stderr tail:\n%s", err, tail)
			}
			failures = append(failures, err)
		}
	}
	// Pool-level failures (every host quarantined, scheduler stall)
	// belong to no single shard; lead with them.
	if poolErr != nil && !errors.Is(poolErr, context.Canceled) {
		failures = append([]error{poolErr}, failures...)
	}
	if interrupted > 0 && len(failures) > 0 {
		failures = append(failures, fmt.Errorf("%d other shard(s) interrupted; the store resumes the sweep", interrupted))
	} else if interrupted > 0 {
		failures = append(failures, fmt.Errorf("%d shard(s) interrupted", interrupted))
	}
	if len(failures) > 0 {
		return rep, errors.Join(failures...)
	}

	if o.Compact {
		cst, err := st.Compact(resultstore.CompactOptions{})
		if err != nil {
			return rep, fmt.Errorf("orchestrator: compact: %w", err)
		}
		rep.Compact = &cst
		fmt.Fprintln(stderr, "orchestrator: compacted store:", cst)
	}

	// Assemble: re-run the campaign unsharded against the store. Its
	// stdout is the sweep's final output — byte-identical to a
	// single-host run, because the store only changes what is
	// simulated, never what is printed — and its progress stream lets
	// the orchestrator enforce that nothing was simulated.
	assembler := o.assembler
	if assembler == nil {
		assembler = Local{}
	}
	var last Event
	sawEvent := false
	dec := &Decoder{
		OnEvent: func(e Event) {
			last, sawEvent = e, true
			if obs.Enabled() {
				obs.Emit(obs.Entry{Event: "cell_done", Phase: "assemble", Cell: obs.Int(e.Cell),
					Workload: e.Workload, Point: e.Point, Scheme: e.Scheme, Hit: e.Hit, Err: e.Err})
			}
		},
		OnLine: func(s string) { fmt.Fprintln(stderr, s) },
	}
	if obs.Enabled() {
		obs.Emit(obs.Entry{Event: "assemble_start", Detail: assembler.Name()})
	}
	asmStart := time.Now()
	err = assembler.Run(ctx, o.assemblyArgv(), stdout, dec)
	dec.Close()
	if obs.Enabled() {
		ent := obs.Entry{Event: "assemble_done", Detail: assembler.Name(),
			Count: last.Done, DurMS: time.Since(asmStart).Milliseconds()}
		if err != nil {
			ent.Err = err.Error()
		}
		obs.Emit(ent)
	}
	if err != nil {
		return rep, fmt.Errorf("orchestrator: assembly (%s): %w", assembler.Name(), err)
	}
	if !sawEvent {
		// Without events the misses=0 contract was never checked — an
		// exit-0 command that ignores -progress-json must not pass off
		// an unverified sweep as assembled.
		return rep, fmt.Errorf("orchestrator: assembly (%s) emitted no progress events: does the command speak the progress protocol?", assembler.Name())
	}
	rep.Cells, rep.Hits, rep.Sims = last.Done, last.Hits, last.Sims
	if rep.Sims > 0 {
		return rep, fmt.Errorf("orchestrator: assembly simulated %d cell(s): the shards did not cover the grid", rep.Sims)
	}
	return rep, nil
}

// resolve validates the options, for Run and Plan alike.
func (o *Options) resolve() error {
	if len(o.Argv) == 0 {
		return fmt.Errorf("orchestrator: no campaign command")
	}
	if o.Shards < 1 {
		return fmt.Errorf("orchestrator: shards must be >= 1, got %d", o.Shards)
	}
	if o.StoreRoot == "" {
		return fmt.Errorf("orchestrator: no store root")
	}
	if o.Pool == nil {
		return fmt.Errorf("orchestrator: no pool")
	}
	if len(o.Pool.Hosts) == 0 {
		return fmt.Errorf("orchestrator: pool has no hosts")
	}
	return nil
}

// shardArgv is the worker command for every attempt of one shard: the
// primary, a relaunch and a stolen duplicate alike.
func (o *Options) shardArgv(shard int) []string {
	return append(append([]string{}, o.Argv...), WorkerFlags{
		Shard:        campaign.Shard{Index: shard, Count: o.Shards}.String(),
		Store:        o.StoreRoot,
		ProgressJSON: true,
	}.Args()...)
}

// assemblyArgv is the unsharded command run against the store.
func (o *Options) assemblyArgv() []string {
	return append(append([]string{}, o.Argv...), WorkerFlags{Store: o.StoreRoot, ProgressJSON: true}.Args()...)
}

// aggregator folds per-shard (and, under a pool, per-attempt) events
// into the live Snapshot.
type aggregator struct {
	mu sync.Mutex
	// shards holds each shard's leading attempt; attempts the raw
	// per-attempt progress behind it (allocated on a shard's first
	// event).
	shards   []ShardProgress
	attempts []map[int]ShardProgress
	steals   int
	quar     int
	kick     chan struct{}
	progress func(Snapshot)
	onEvent  func(shard int, e Event)
}

func (a *aggregator) observeAttempt(i, attempt int, e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := ShardProgress{Done: e.Done, Total: e.Total, Hits: e.Hits, Sims: e.Sims, EtaMS: e.EtaMS, Seen: true}
	if a.attempts[i] == nil {
		a.attempts[i] = make(map[int]ShardProgress)
	}
	a.attempts[i][attempt] = p
	// The shard speaks with its leading attempt's voice: every attempt
	// works through the same cells, so summing attempts would
	// double-count the grid. Ties break to the lowest attempt id so
	// the leader never flaps between equally advanced attempts.
	lead, leadID := p, attempt
	for id, q := range a.attempts[i] {
		if q.Done > lead.Done || (q.Done == lead.Done && id < leadID) {
			lead, leadID = q, id
		}
	}
	a.shards[i] = lead
	obsShardDone.With(shardLabel(i)).Set(float64(lead.Done))
	obsShardTotal.With(shardLabel(i)).Set(float64(lead.Total))
	if e.ElapsedMS > 0 {
		obsShardRate.With(shardLabel(i)).Set(float64(e.Done) / (float64(e.ElapsedMS) / 1000))
	}
	if obs.Enabled() {
		obs.Emit(obs.Entry{Event: "cell_done", Phase: "shard", Shard: obs.Int(i), Cell: obs.Int(e.Cell),
			Workload: e.Workload, Point: e.Point, Scheme: e.Scheme, Hit: e.Hit, DurMS: e.SimMS, Err: e.Err})
	}
	if a.onEvent != nil {
		a.onEvent(i, e)
	}
	// The callback runs under the mutex so snapshots are delivered in
	// order — without it two decoder goroutines could swap deliveries
	// and the ticker would show the count regressing.
	if a.progress != nil {
		a.progress(a.snapshotLocked())
	}
	// Fresh progress means fresh ETA data: nudge a parked pool
	// scheduler to reconsider stealing, without it polling a clock.
	if a.kick != nil {
		select {
		case a.kick <- struct{}{}:
		default:
		}
	}
}

func (a *aggregator) setKick(ch chan struct{}) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.kick = ch
}

func (a *aggregator) addSteal() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.steals++
	if a.progress != nil {
		a.progress(a.snapshotLocked())
	}
}

func (a *aggregator) addQuarantine() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.quar++
	if a.progress != nil {
		a.progress(a.snapshotLocked())
	}
}

func (a *aggregator) snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapshotLocked()
}

func (a *aggregator) get(i int) ShardProgress {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shards[i]
}

func (a *aggregator) snapshotLocked() Snapshot {
	snap := Snapshot{Shards: append([]ShardProgress(nil), a.shards...), Slowest: -1,
		Steals: a.steals, Quarantined: a.quar}
	worst := 0.0
	for i, s := range a.shards {
		snap.Done += s.Done
		snap.Total += s.Total
		snap.Hits += s.Hits
		snap.Sims += s.Sims
		// A shard that has not reported yet counts as zero progress; a
		// finished shard is never "slowest". All finished -> -1.
		frac := 0.0
		if s.Seen && s.Total > 0 {
			if s.Done >= s.Total {
				continue
			}
			frac = float64(s.Done) / float64(s.Total)
		}
		if s.EtaMS > snap.EtaMS {
			snap.EtaMS = s.EtaMS
		}
		if snap.Slowest == -1 || frac < worst {
			worst, snap.Slowest = frac, i
		}
	}
	obsSlowest.Set(float64(snap.Slowest))
	return snap
}
