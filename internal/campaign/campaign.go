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
	// marks it as store-served.
	Workload, Label string
	Scheme          Scheme
	Cached          bool
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
	// split one sweep. The spec itself is untouched — Assemble later
	// re-executes it unsharded against the merged stores.
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
	// (0 = telemetry.DefaultInterval).
	Interval uint64
	// Cap bounds retained samples per cell (0 = telemetry.DefaultCap);
	// older samples are overwritten, whole-run totals survive in the
	// sidecar header.
	Cap int
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

// baseKey identifies one memoisable reference simulation by workload,
// scheme and the resolved config with every knob the scheme ignores
// normalised to zero. An unprotected run depends only on the program,
// the sample length and the main-core microarchitecture; checker-side
// knobs are irrelevant, so sweep points share one baseline. BigCore
// overrides MainCoreHz, so the clock is normalised to zero when it is
// set. Lockstep and RMT reference runs are keyed the same way,
// distinguished by scheme. A fault golden is a protected run, which
// every knob can change, so its key keeps the full config.
type baseKey struct {
	workload string
	scheme   Scheme
	cfg      paradet.Config
}

func newBaseKey(cfg paradet.Config, workload string, scheme Scheme) baseKey {
	norm := paradet.Config{MaxInstrs: cfg.MaxInstrs, BigCore: cfg.BigCore, MainCoreHz: cfg.MainCoreHz}
	if scheme == SchemeUnprotected && norm.BigCore {
		norm.MainCoreHz = 0 // BigCore ignores MainCoreHz
	}
	return baseKey{workload: workload, scheme: scheme, cfg: norm}
}

// storeKey is the persistent fingerprint identity of a reference run,
// so equivalent runs share one cell across sweeps. A fault golden's is
// its protected cell key.
func (k baseKey) storeKey() resultstore.Key {
	return resultstore.Key{Workload: k.workload, Scheme: string(k.scheme), Config: k.cfg}
}

type baseEntry struct {
	mu        sync.Mutex
	res       *paradet.Result
	aux       *paradet.BaselineResult
	err       error
	fromStore bool
}

// refCache memoises reference runs — unprotected baselines/cells,
// lockstep and RMT reference runs, and fault goldens — so each unique
// key simulates at most once per campaign, whichever worker gets there
// first, and is additionally served from the persistent store when one
// is attached. Concurrent requesters of one key block on the same
// entry.
type refCache struct {
	sim     Simulator
	store   *resultstore.Store
	ctrs    *counters
	mu      sync.Mutex
	entries map[baseKey]*baseEntry
}

func newRefCache(sim Simulator, store *resultstore.Store, ctrs *counters) *refCache {
	return &refCache{sim: sim, store: store, ctrs: ctrs, entries: make(map[baseKey]*baseEntry)}
}

func (c *refCache) entry(key baseKey) *baseEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		e = &baseEntry{}
		c.entries[key] = e
	}
	return e
}

// unprotected returns the memoised unprotected run for cfg.
func (c *refCache) unprotected(ctx context.Context, cfg paradet.Config, workload string, p *paradet.Program) (*paradet.Result, bool, error) {
	key := newBaseKey(cfg, workload, SchemeUnprotected)
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, false, e.err
	}
	if e.res != nil {
		return e.res, e.fromStore, nil
	}
	if c.store != nil {
		if cell, ok := c.store.Get(key.storeKey()); ok && cell.Result != nil {
			c.ctrs.baseHits.Add(1)
			obsRefHit.Inc()
			e.res, e.fromStore = cell.Result, true
			return e.res, true, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	c.ctrs.baseSims.Add(1)
	obsRefSim.Inc()
	res, err := c.sim.RunUnprotected(ctx, cfg, p)
	if err == nil && res.TimeNS == 0 {
		err = fmt.Errorf("zero-length baseline run")
	}
	if err != nil {
		e.err = err
		return nil, false, err
	}
	e.res = res
	if c.store != nil {
		c.store.Put(key.storeKey(), &resultstore.Cell{Result: res}) // best-effort
	}
	return e.res, false, nil
}

// golden returns the fault-free protected run that the fault cells of
// cfg are classified against. Classification diffs its final memory
// image, which the store does not carry, so it is simulated in-process,
// once per campaign and only when a fault cell misses the store. It is
// written best-effort under its protected cell key, which then serves a
// protected cell of the same config.
func (c *refCache) golden(ctx context.Context, cfg paradet.Config, workload string, p *paradet.Program) (*paradet.Result, error) {
	key := baseKey{workload: workload, scheme: SchemeProtected, cfg: cfg}
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil || e.res != nil {
		return e.res, e.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.ctrs.baseSims.Add(1)
	obsRefSim.Inc()
	res, err := c.sim.Run(ctx, cfg, p)
	if err != nil {
		e.err = err
		return nil, err
	}
	e.res = res
	if c.store != nil {
		c.store.Put(key.storeKey(), &resultstore.Cell{Result: res}) // best-effort
	}
	return res, nil
}

// reference returns the memoised lockstep or RMT reference run.
func (c *refCache) reference(ctx context.Context, cfg paradet.Config, workload string, scheme Scheme, p *paradet.Program) (*paradet.BaselineResult, bool, error) {
	key := newBaseKey(cfg, workload, scheme)
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, false, e.err
	}
	if e.aux != nil {
		return e.aux, e.fromStore, nil
	}
	if c.store != nil {
		if cell, ok := c.store.Get(key.storeKey()); ok && cell.Baseline != nil {
			c.ctrs.baseHits.Add(1)
			obsRefHit.Inc()
			e.aux, e.fromStore = cell.Baseline, true
			return e.aux, true, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	c.ctrs.baseSims.Add(1)
	obsRefSim.Inc()
	var aux *paradet.BaselineResult
	var err error
	if scheme == SchemeLockstep {
		aux, err = c.sim.RunLockstep(ctx, cfg, p)
	} else {
		aux, err = c.sim.RunRMT(ctx, cfg, p)
	}
	if err != nil {
		e.err = err
		return nil, false, err
	}
	e.aux = aux
	if c.store != nil {
		c.store.Put(key.storeKey(), &resultstore.Cell{Baseline: aux}) // best-effort
	}
	return e.aux, false, nil
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

	// The shard's strategy maps spec-order cell indices to owners —
	// round-robin over the index, or cost-weighted over the resolved
	// instruction samples. Unowned cells are marked Skipped and never
	// touched.
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
	eng := &engine{
		sim:      sim,
		store:    opts.Store,
		ctrs:     &counters{},
		progress: opts.Progress,
		total:    len(owned),
		telem:    opts.Telemetry,
	}
	eng.cache = newRefCache(sim, opts.Store, eng.ctrs)
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
	store    *resultstore.Store
	cache    *refCache
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

// run simulates (or loads) one cell and, when requested, its shared
// baseline and slowdown.
func (e *engine) run(ctx context.Context, r *Run, prog *paradet.Program, withBaseline bool) {
	switch {
	case r.Fault != nil:
		e.runFault(ctx, r, prog)
		return // a fault cell has no slowdown
	case r.Scheme == SchemeProtected:
		key := CellKey(r)
		if e.store != nil {
			if cell, ok := e.store.Get(key); ok && cell.Result != nil {
				e.ctrs.cellHits.Add(1)
				r.Res, r.Cached = cell.Result, true
				break
			}
		}
		e.ctrs.cellSims.Add(1)
		if ts, ok := e.sim.(TelemetrySimulator); ok && e.telem != nil {
			probe := telemetry.New(e.telem.Interval, e.telem.Cap)
			r.Res, r.Err = ts.RunTelemetry(ctx, r.Config, prog, probe)
			if r.Err == nil {
				e.writeTelemetry(key, r, probe)
			}
		} else {
			r.Res, r.Err = e.sim.Run(ctx, r.Config, prog)
		}
		if r.Err == nil && e.store != nil {
			e.store.Put(key, &resultstore.Cell{Result: r.Res}) // best-effort
		}
	case r.Scheme == SchemeUnprotected:
		r.Res, r.Cached, r.Err = e.cache.unprotected(ctx, r.Config, r.Workload, prog)
	case r.Scheme == SchemeLockstep, r.Scheme == SchemeRMT:
		r.Aux, r.Cached, r.Err = e.cache.reference(ctx, r.Config, r.Workload, r.Scheme, prog)
	}
	if r.Err != nil || !withBaseline {
		return
	}
	base, _, err := e.cache.unprotected(ctx, r.Config, r.Workload, prog)
	if err != nil {
		r.Err = fmt.Errorf("baseline: %w", err)
		return
	}
	r.Baseline = base
	r.Slowdown = r.TimeNS() / base.TimeNS
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

// runFault classifies one fault-injection cell against the memoised
// golden run. The golden run is only simulated on a store miss, so a
// fully warm store performs zero simulations.
func (e *engine) runFault(ctx context.Context, r *Run, prog *paradet.Program) {
	key := CellKey(r)
	if e.store != nil {
		if cell, ok := e.store.Get(key); ok && cell.FaultRecord != nil {
			e.ctrs.cellHits.Add(1)
			r.FaultRec, r.Cached = cell.FaultRecord, true
			return
		}
	}
	golden, err := e.cache.golden(ctx, r.Config, r.Workload, prog)
	if err != nil {
		r.Err = fmt.Errorf("golden run: %w", err)
		return
	}
	// ClassifyFault bounds runaway wrong-path execution from control
	// faults. The fingerprint keys the unbounded config: the bound is a
	// deterministic function of it.
	e.ctrs.cellSims.Add(1)
	rec, err := e.sim.ClassifyFault(ctx, r.Config, prog, *r.Fault, golden)
	if err != nil {
		r.Err = err
		return
	}
	r.FaultRec = &rec
	if e.store != nil {
		e.store.Put(key, &resultstore.Cell{FaultRecord: &rec}) // best-effort
	}
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
