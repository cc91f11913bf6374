package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paradet"
	"paradet/internal/obs"
	"paradet/internal/obs/telemetry"
	"paradet/internal/resultstore"
)

// Stats counts what a campaign actually did, separating simulations
// from cache traffic. A campaign re-executed against a warm result
// store reports CellSims == 0 && BaselineSims == 0.
type Stats struct {
	// Cells is the total number of grid cells.
	Cells int
	// CellHits counts cells whose payload was loaded from the store.
	CellHits int
	// CellSims counts simulations performed directly for cells:
	// protected runs and fault classifications.
	CellSims int
	// BaselineSims counts memoised reference simulations actually
	// performed: unprotected baselines/cells, lockstep and RMT
	// reference runs, and golden runs for fault classification.
	BaselineSims int
	// BaselineHits counts reference results loaded from the store.
	BaselineHits int
	// ShardCells counts cells owned (executed or store-served) by this
	// execution's shard; equals Cells when no shard filter is set.
	ShardCells int
	// ShardSkipped counts cells excluded by the shard filter.
	ShardSkipped int
}

// Add accumulates another campaign's counters, keeping the field list
// in one place for callers that total stats across sweeps.
func (s *Stats) Add(o Stats) {
	s.Cells += o.Cells
	s.CellHits += o.CellHits
	s.CellSims += o.CellSims
	s.BaselineSims += o.BaselineSims
	s.BaselineHits += o.BaselineHits
	s.ShardCells += o.ShardCells
	s.ShardSkipped += o.ShardSkipped
}

// Outcome is a completed campaign: one Run per (workload, point[,
// fault]) cell, in spec order (workload-major, then point, then
// fault), independent of worker scheduling.
type Outcome struct {
	Spec Spec
	// Shard records the shard filter the campaign executed under (nil
	// = the full grid), so reports built from a sharded outcome can
	// mark themselves partial.
	Shard   *Shard
	Results []Run
	Stats   Stats
}

// Err joins every per-run error (nil if the whole sweep succeeded).
func (o *Outcome) Err() error {
	var errs []error
	for i := range o.Results {
		r := &o.Results[i]
		if r.Err != nil {
			cell := fmt.Sprintf("%s %s/%s[%s]", o.Spec.Name, r.Workload, r.Point.Label, r.Scheme)
			if r.Fault != nil {
				cell += fmt.Sprintf("{%v}", *r.Fault)
			}
			errs = append(errs, fmt.Errorf("%s: %w", cell, r.Err))
		}
	}
	return errors.Join(errs...)
}

// Progress reports one completed cell plus running totals. Callbacks
// are serialized by the engine, so implementations need no locking.
type Progress struct {
	// Done and Total count cells (Done includes failed cells).
	Done, Total int
	// Cell is the finished cell's spec-order index in the expanded grid
	// (workload-major, then point, then fault) — stable across shards
	// and worker counts, unlike Done.
	Cell int
	// CellHits/CellSims/BaselineSims/BaselineHits are running totals
	// with the Stats meanings.
	CellHits, CellSims, BaselineSims, BaselineHits int
	// Workload, Label and Scheme identify the finished cell; Cached
	// marks it as served without a simulation of its own.
	Workload, Label string
	Scheme          Scheme
	Cached          bool
	// Fingerprint is the cell's store fingerprint (CellKey), which
	// also names its telemetry sidecar.
	Fingerprint string
	// Elapsed is the cell's wall-clock latency — near zero for
	// store-served cells, the simulation time otherwise.
	Elapsed time.Duration
	// Err is the cell's failure, if any.
	Err error
}

// ProgressFunc observes per-cell completion.
type ProgressFunc func(Progress)

// Options tune Execute beyond the spec itself.
type Options struct {
	// Store, when non-nil, memoises cells persistently: hits load from
	// disk, misses simulate and write back atomically, so concurrent
	// processes may share one store directory.
	Store *resultstore.Store
	// Progress, when non-nil, is invoked after every cell.
	Progress ProgressFunc
	// Shard, when non-nil, restricts execution to the shard's slice of
	// the expanded grid: cells outside it are marked Run.Skipped and
	// never simulated or loaded, so N processes with disjoint shards
	// split one sweep. The spec itself is untouched — assembly later
	// re-executes it unsharded against the shards' store.
	Shard *Shard
	// Telemetry, when non-nil, attaches an interval telemetry probe to
	// every simulated protected (non-fault) cell and writes a sidecar
	// JSONL series per cell. Telemetry is strictly out-of-band: store
	// contents, fingerprints, Results and stdout are byte-identical to
	// a run without it, and store-served cells never re-simulate just
	// to produce telemetry.
	Telemetry *TelemetryOptions
}

// TelemetryOptions configure per-cell telemetry capture.
type TelemetryOptions struct {
	// Dir receives one <fingerprint>.jsonl sidecar per simulated
	// protected cell; conventionally <store dir>/telemetry. Required.
	Dir string
	// Interval is the committed-instruction sampling interval
	// (0 = telemetry.DefaultInterval). Each cell keeps its last
	// telemetry.DefaultCap samples; whole-run totals survive in the
	// sidecar header.
	Interval uint64
}

// counters aggregates engine statistics across workers.
type counters struct {
	done, cellHits, cellSims, baseSims, baseHits atomic.Int64
}

func (c *counters) stats(cells int) Stats {
	return Stats{
		Cells:        cells,
		CellHits:     int(c.cellHits.Load()),
		CellSims:     int(c.cellSims.Load()),
		BaselineSims: int(c.baseSims.Load()),
		BaselineHits: int(c.baseHits.Load()),
	}
}

// work says how a memo lookup is counted and whether the store may
// serve it.
type work uint8

const (
	// cellWork is a grid cell's own run: a protected run or a fault
	// classification (CellHits, CellSims).
	cellWork work = iota
	// refWork is a reference run: an unprotected, lockstep or RMT run
	// (BaselineHits, BaselineSims).
	refWork
	// goldenWork is the fault-free protected run fault cells are
	// classified against. Classification diffs its final memory image,
	// which the store does not carry, so the store never serves it.
	goldenWork
)

// memo holds one entry per store key, so each cell and reference run
// is computed at most once per campaign, whichever worker gets there
// first. Concurrent requesters of one key block on the same entry and
// share its payload.
type memo struct {
	store   *resultstore.Store
	ctrs    *counters
	mu      sync.Mutex
	entries map[string]*memoEntry // by key fingerprint
}

type memoEntry struct {
	mu   sync.Mutex
	cell *resultstore.Cell
	err  error
}

// get returns key's payload and whether this call ran simulate: from
// the memo entry, else from the store, else from simulate, whose
// payload is then put back best-effort. A golden is put back too, under
// its protected cell key, which then serves a protected cell of its
// config.
func (m *memo) get(ctx context.Context, key resultstore.Key, w work, simulate func() (*resultstore.Cell, error)) (*resultstore.Cell, bool, error) {
	fp := key.Fingerprint()
	m.mu.Lock()
	e := m.entries[fp]
	if e == nil {
		e = &memoEntry{}
		m.entries[fp] = e
	}
	m.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cell != nil || e.err != nil {
		return e.cell, false, e.err
	}
	ref := w != cellWork
	hits, sims := &m.ctrs.cellHits, &m.ctrs.cellSims
	if ref {
		hits, sims = &m.ctrs.baseHits, &m.ctrs.baseSims
	}
	if m.store != nil && w != goldenWork {
		if c, ok := m.store.Get(key); ok && holds(key, c) {
			hits.Add(1)
			if ref {
				obsRefHit.Inc()
			}
			e.cell = c
			return c, false, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	sims.Add(1)
	if ref {
		obsRefSim.Inc()
	}
	c, err := simulate()
	if err != nil {
		e.err = err
		return nil, true, err
	}
	e.cell = c
	if m.store != nil {
		m.store.Put(key, c) // best-effort
	}
	return c, true, nil
}

// holds reports whether a stored cell carries the payload its key's
// cell produces.
func holds(k resultstore.Key, c *resultstore.Cell) bool {
	switch {
	case k.Fault != nil:
		return c.FaultRecord != nil
	case k.Scheme == string(SchemeLockstep), k.Scheme == string(SchemeRMT):
		return c.Baseline != nil
	}
	return c.Result != nil
}

// Execute runs the campaign with a background context and no store.
// It returns an error only for spec-level problems (empty spec,
// unknown scheme); individual run failures land on their Run and in
// Outcome.Err.
func Execute(spec Spec, sim Simulator) (*Outcome, error) {
	return ExecuteContext(context.Background(), spec, sim, Options{})
}

// ExecuteContext runs the campaign under a context with optional store
// memoisation and progress reporting. Cancellation is honoured between
// cells: already-finished cells keep their results, unstarted cells
// record the context error, and the context error is returned
// alongside the partial outcome.
func ExecuteContext(ctx context.Context, spec Spec, sim Simulator, opts Options) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sim == nil {
		sim = Default()
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if opts.Shard != nil {
		if err := opts.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("campaign %q: %w", spec.Name, err)
		}
	}

	// Load every workload once, up front and in spec order; runs share
	// the assembled (read-only) program.
	type loaded struct {
		prog *paradet.Program
		info paradet.WorkloadInfo
		err  error
	}
	progs := make(map[string]loaded, len(spec.Workloads))
	for _, name := range spec.Workloads {
		if _, ok := progs[name]; ok {
			continue
		}
		p, info, err := sim.Load(ctx, name)
		progs[name] = loaded{prog: p, info: info, err: err}
	}

	// Expand the grid (workload-major, then point, then fault; see
	// expandGrid). A workload that failed to load resolves against the
	// zero WorkloadInfo here and records its load error per cell below.
	out := &Outcome{Spec: spec, Shard: opts.Shard,
		Results: expandGrid(spec, func(name string) paradet.WorkloadInfo { return progs[name].info })}

	// The shard plan maps spec-order cell indices to owners, weighted
	// by the resolved instruction samples. Unowned cells are marked
	// Skipped and never touched.
	owns := func(int) bool { return true }
	if opts.Shard != nil {
		owns = opts.Shard.planner(out.Results)
	}
	owned := make([]int, 0, len(out.Results))
	for i := range out.Results {
		if !owns(i) {
			out.Results[i].Skipped = true
			continue
		}
		owned = append(owned, i)
	}

	if opts.Telemetry != nil && opts.Telemetry.Dir == "" {
		return nil, fmt.Errorf("campaign %q: telemetry needs a sidecar directory", spec.Name)
	}
	ctrs := &counters{}
	eng := &engine{
		sim:      sim,
		memo:     &memo{store: opts.Store, ctrs: ctrs, entries: make(map[string]*memoEntry)},
		ctrs:     ctrs,
		progress: opts.Progress,
		total:    len(owned),
		telem:    opts.Telemetry,
	}
	if obs.Enabled() {
		obs.Emit(obs.Entry{Event: "sweep_start", Phase: "campaign", Detail: spec.Name, Count: len(owned)})
	}
	forEach(spec.Parallel, len(owned), func(n int) {
		r := &out.Results[owned[n]]
		l := progs[r.Workload]
		if obs.Enabled() {
			obs.Emit(obs.Entry{Event: "cell_start", Phase: "campaign", Cell: obs.Int(owned[n]),
				Workload: r.Workload, Point: r.Point.Label, Scheme: string(r.Scheme), Detail: spec.Name})
		}
		start := time.Now()
		switch {
		case ctx.Err() != nil:
			r.Err = ctx.Err()
		case l.err != nil:
			r.Err = fmt.Errorf("load workload: %w", l.err)
		default:
			eng.run(ctx, r, l.prog, spec.WithBaseline)
		}
		eng.report(owned[n], r, time.Since(start))
	})
	if obs.Enabled() {
		obs.Emit(obs.Entry{Event: "sweep_done", Phase: "campaign", Detail: spec.Name, Count: len(owned)})
	}
	out.Stats = eng.ctrs.stats(len(out.Results))
	out.Stats.ShardCells = len(owned)
	out.Stats.ShardSkipped = len(out.Results) - len(owned)
	return out, ctx.Err()
}

// engine bundles the per-execution state the cell workers share.
type engine struct {
	sim      Simulator
	memo     *memo
	ctrs     *counters
	total    int
	mu       sync.Mutex // serializes progress callbacks
	progress ProgressFunc
	telem    *TelemetryOptions
}

// report emits one progress event (serialized across workers). The
// done increment happens under the mutex so events carry strictly
// increasing Done counts; the final event (Done == Total) observes
// every worker's counter updates, because each cell's increments
// happen before its own report and all prior reports released the
// mutex this one holds.
func (e *engine) report(cell int, r *Run, elapsed time.Duration) {
	e.observe(cell, r, elapsed)
	if e.progress == nil {
		e.ctrs.done.Add(1)
		return
	}
	fp := CellKey(r).Fingerprint()
	e.mu.Lock()
	defer e.mu.Unlock()
	done := e.ctrs.done.Add(1)
	e.progress(Progress{
		Done:         int(done),
		Total:        e.total,
		Cell:         cell,
		CellHits:     int(e.ctrs.cellHits.Load()),
		CellSims:     int(e.ctrs.cellSims.Load()),
		BaselineSims: int(e.ctrs.baseSims.Load()),
		BaselineHits: int(e.ctrs.baseHits.Load()),
		Workload:     r.Workload,
		Label:        r.Point.Label,
		Scheme:       r.Scheme,
		Cached:       r.Cached,
		Fingerprint:  fp,
		Elapsed:      elapsed,
		Err:          r.Err,
	})
}

// observe records the cell on the metrics registry (always — the cost
// is a couple of atomics) and on the run ledger (only when one is
// attached).
func (e *engine) observe(cell int, r *Run, elapsed time.Duration) {
	obsCellSeconds.Observe(elapsed.Seconds())
	switch {
	case r.Err != nil:
		obsCellErr.Inc()
	case r.Cached:
		obsCellHit.Inc()
	default:
		obsCellSim.Inc()
	}
	if !obs.Enabled() {
		return
	}
	ent := obs.Entry{Event: "cell_done", Phase: "campaign", Cell: obs.Int(cell),
		Workload: r.Workload, Point: r.Point.Label, Scheme: string(r.Scheme),
		Hit: r.Cached, DurMS: elapsed.Milliseconds()}
	if r.Err != nil {
		ent.Err = r.Err.Error()
	}
	obs.Emit(ent)
}

// run computes (or loads) one cell and, when requested, its shared
// baseline and slowdown.
func (e *engine) run(ctx context.Context, r *Run, prog *paradet.Program, withBaseline bool) {
	e.lookup(ctx, r, prog)
	if r.Err != nil || r.Fault != nil || !withBaseline {
		return // a fault cell has no slowdown
	}
	base := Run{Workload: r.Workload, Scheme: SchemeUnprotected, Config: r.Config}
	if e.lookup(ctx, &base, prog); base.Err != nil {
		r.Err = fmt.Errorf("baseline: %w", base.Err)
		return
	}
	r.Baseline = base.Res
	r.Slowdown = r.TimeNS() / base.Res.TimeNS
}

// lookup fills r's payload through the memo, keyed by CellKey(r), so a
// warm store performs no simulation at all.
func (e *engine) lookup(ctx context.Context, r *Run, prog *paradet.Program) {
	w := refWork
	if r.Fault != nil || r.Scheme == SchemeProtected {
		w = cellWork
	}
	key := CellKey(r)
	c, simulated, err := e.memo.get(ctx, key, w, func() (*resultstore.Cell, error) {
		return e.simulate(ctx, r, key, prog)
	})
	r.Err = err
	if err == nil {
		r.Cached = !simulated
		r.Res, r.Aux, r.FaultRec = c.Result, c.Baseline, c.FaultRecord
	}
}

// simulate runs one cell on the simulator. A protected cell carries
// telemetry when it is asked for.
func (e *engine) simulate(ctx context.Context, r *Run, key resultstore.Key, prog *paradet.Program) (*resultstore.Cell, error) {
	c := &resultstore.Cell{}
	var err error
	switch {
	case r.Fault != nil:
		c.FaultRecord, err = e.classify(ctx, r, prog)
	case r.Scheme == SchemeProtected:
		ts, ok := e.sim.(TelemetrySimulator)
		if !ok || e.telem == nil {
			c.Result, err = e.sim.Run(ctx, r.Config, prog)
			break
		}
		probe := telemetry.New(e.telem.Interval, telemetry.DefaultCap)
		if c.Result, err = ts.RunTelemetry(ctx, r.Config, prog, probe); err == nil {
			e.writeTelemetry(key, r, probe)
		}
	case r.Scheme == SchemeUnprotected:
		c.Result, err = e.sim.RunUnprotected(ctx, r.Config, prog)
		if err == nil && c.Result.TimeNS == 0 {
			err = fmt.Errorf("zero-length baseline run")
		}
	case r.Scheme == SchemeLockstep:
		c.Baseline, err = e.sim.RunLockstep(ctx, r.Config, prog)
	case r.Scheme == SchemeRMT:
		c.Baseline, err = e.sim.RunRMT(ctx, r.Config, prog)
	}
	return c, err
}

// writeTelemetry drops the cell's telemetry series as a sidecar named
// by the cell fingerprint, and notes it on the ledger when one is
// attached. Best-effort, like store writes: telemetry must never fail
// a cell that simulated fine.
func (e *engine) writeTelemetry(key resultstore.Key, r *Run, probe *telemetry.Probe) {
	s := &telemetry.Series{Samples: probe.Samples()}
	s.Header.Fingerprint = key.Fingerprint()
	s.Header.Workload = r.Workload
	s.Header.Point = r.Point.Label
	s.Header.Scheme = string(r.Scheme)
	s.Header.Finalize(probe)
	if _, err := s.WriteFile(e.telem.Dir); err != nil {
		obsTelemErr.Inc()
		if obs.Enabled() {
			obs.Emit(obs.Entry{Event: "telemetry", Phase: "campaign",
				Workload: r.Workload, Point: r.Point.Label, Scheme: string(r.Scheme), Err: err.Error()})
		}
		return
	}
	obsTelemCells.Inc()
	if obs.Enabled() {
		obs.Emit(obs.Entry{Event: "telemetry", Phase: "campaign",
			Workload: r.Workload, Point: r.Point.Label, Scheme: string(r.Scheme),
			Count: int(s.Header.TotalSamples), Detail: s.Header.Fingerprint})
	}
}

// classify classifies one fault cell against its golden: the
// fault-free protected run of the same workload and config, simulated
// at most once per campaign and only when a fault cell misses the
// store, so a fully warm store performs zero simulations.
func (e *engine) classify(ctx context.Context, r *Run, prog *paradet.Program) (*paradet.FaultRecord, error) {
	gkey := resultstore.Key{Workload: r.Workload, Scheme: string(SchemeProtected), Config: r.Config}
	g, _, err := e.memo.get(ctx, gkey, goldenWork, func() (*resultstore.Cell, error) {
		res, err := e.sim.Run(ctx, r.Config, prog)
		return &resultstore.Cell{Result: res}, err
	})
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	// ClassifyFault bounds runaway wrong-path execution from control
	// faults. The fingerprint keys the unbounded config: the bound is a
	// deterministic function of it.
	rec, err := e.sim.ClassifyFault(ctx, r.Config, prog, *r.Fault, g.Result)
	return &rec, err
}

// resolveConfig fills the committed-instruction sample: point config,
// then spec override, then the workload default.
func resolveConfig(cfg paradet.Config, specInstrs uint64, info paradet.WorkloadInfo) paradet.Config {
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = specInstrs
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = info.DefaultMaxInstrs
	}
	return cfg
}

// forEach fans indices [0, total) out across a bounded worker pool.
// Each index is processed exactly once; callers write results into
// per-index slots, so output order never depends on scheduling.
func forEach(workers, total int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		for i := 0; i < total; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
