package main

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"paradet/internal/campaign"
	"paradet/internal/experiments"
	"paradet/internal/resultstore"
)

// coldInstrs is figure_cold's committed-instruction sample per cell.
// Cells stay short, so costs outside the simulator (Build, the worker
// pool, store writes) are a visible share of an op. At 5,000
// instructions the store writes, whose filesystem cost on a shared
// virtual machine swings with the disk's recent history, moved an op's
// CPU time by a fifth between runs; at 20,000 they are a small enough
// share that runs agree.
const coldInstrs = 20_000

// figWorkers is the campaign worker pool of the figure workloads, at
// most the two CPUs the benchmark is sized for.
const figWorkers = 2

// figure is one experiment the figure workloads regenerate, with its
// workload subset (nil = the experiment's default) and its
// committed-instruction sample per cell.
type figure struct {
	name      string
	workloads []string
	instrs    uint64
}

// options are the experiments options that regenerate the figure.
func (f figure) options(store *resultstore.Store) experiments.Options {
	return experiments.Options{MaxInstrs: f.instrs, Workloads: f.workloads, Parallel: figWorkers, Store: store}
}

// query is the same selection as serve's query parameters.
func (f figure) query() url.Values {
	q := url.Values{"instrs": {fmt.Sprint(f.instrs)}}
	if len(f.workloads) > 0 {
		q.Set("workloads", strings.Join(f.workloads, ","))
	}
	return q
}

// coldFigures are figure_cold's figures: fig9 over a memory-irregular,
// a memory-regular and a compute kernel, then the fault-injection and
// lockstep/RMT comparison figures at their default workloads.
var coldFigures = []figure{
	{name: "fig9", workloads: []string{"randacc", "stream", "bitcount"}, instrs: coldInstrs},
	{name: "faultcov", instrs: coldInstrs},
	{name: "fig1d", instrs: coldInstrs},
}

// Span names of figure_cold's traced ops.
const spanCell = "campaign.cell"

// figureCold is the figure_cold workload: each op regenerates every
// figure, in a seeded order, into fresh empty stores.
type figureCold struct {
	seed  uint64
	work  string
	want  []string         // set-up's text, by figure
	stats []campaign.Stats // set-up's campaign counters, by figure

	// Traced run only.
	sim       *timedSim
	at        *parentRef
	counters  storeCounters
	store     storeReading
	cellMS    []float64
	refSims   int
	cellTotal time.Duration
}

func setupFigureCold(env *env, tr *tracer) (instance, error) {
	f := &figureCold{seed: env.seed, work: env.work}
	if tr != nil {
		f.at = &parentRef{}
		f.sim = &timedSim{spanner: spanner{tr, f.at}, inner: campaign.Default()}
		f.counters = newStoreCounters()
	}
	texts, stats, err := f.regenerate(-1, &meter{}, nil)
	if err != nil {
		return nil, err
	}
	for k, st := range stats {
		if st.CellHits != 0 || st.BaselineHits != 0 {
			return nil, fmt.Errorf("%s: set-up read %d cells and %d baselines from a fresh store",
				coldFigures[k].name, st.CellHits, st.BaselineHits)
		}
	}
	f.want, f.stats = texts, stats
	return f, nil
}

// regenerate runs every figure, each into its own fresh store, in the
// seeded order of op i (set-up passes -1). Separate stores keep the
// work independent of the order: in a shared store, faultcov's golden
// run would serve fig9's bitcount baseline whenever faultcov ran
// first. Only the figure calls are inside the meter; creating and
// deleting the stores are not.
func (f *figureCold) regenerate(i int, m *meter, tr *tracer) ([]string, []campaign.Stats, error) {
	dir, err := os.MkdirTemp(f.work, "cold-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	stores := make([]*resultstore.Store, len(coldFigures))
	for k, fig := range coldFigures {
		if stores[k], err = resultstore.Open(filepath.Join(dir, fig.name)); err != nil {
			return nil, nil, err
		}
	}
	order := opOrder(f.seed, i, len(coldFigures))
	texts := make([]string, len(coldFigures))
	stats := make([]campaign.Stats, len(coldFigures))
	errs := make([]error, len(coldFigures))
	var before storeReading
	if tr != nil {
		before = f.counters.read()
	}
	m.start()
	opSpan := tr.begin(i, -1, "op")
	for _, k := range order {
		o := coldFigures[k].options(stores[k])
		o.Stats = &stats[k]
		var fig *experiments.Figure
		fig, errs[k] = f.generate(i, opSpan, coldFigures[k].name, o, tr)
		if fig != nil {
			texts[k] = fig.Text
		}
	}
	tr.end(opSpan)
	m.stop()
	if tr != nil {
		f.store.addDelta(before, f.counters.read())
		for _, st := range stats {
			f.refSims += st.BaselineSims
		}
	}
	for k, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", coldFigures[k].name, err)
		}
	}
	return texts, stats, nil
}

// generate regenerates one figure. Traced, it runs under a figure span
// with the timing Simulator and a progress callback that records each
// finished cell as a span.
func (f *figureCold) generate(i, opSpan int, name string, o experiments.Options, tr *tracer) (*experiments.Figure, error) {
	if tr == nil {
		return experiments.Generate(name, o)
	}
	figSpan := tr.begin(i, opSpan, "figure."+name)
	defer tr.end(figSpan)
	f.at.set(i, figSpan)
	o.Sim = f.sim
	o.Progress = func(p campaign.Progress) {
		now := time.Now()
		tr.record(i, figSpan, spanCell, now.Add(-p.Elapsed), now)
		f.cellMS = append(f.cellMS, float64(p.Elapsed.Nanoseconds())/1e6)
		f.cellTotal += p.Elapsed
	}
	return experiments.Generate(name, o)
}

// op regenerates every figure and checks that each text is
// byte-identical to set-up's and that the campaign ran fully cold,
// doing exactly the simulations set-up did.
func (f *figureCold) op(i int, m *meter, tr *tracer) error {
	texts, stats, err := f.regenerate(i, m, tr)
	if err != nil {
		return err
	}
	for k, fig := range coldFigures {
		if texts[k] != f.want[k] {
			return fmt.Errorf("%s: text differs from set-up's", fig.name)
		}
		if stats[k] != f.stats[k] {
			return fmt.Errorf("%s: campaign counters %+v, set-up had %+v", fig.name, stats[k], f.stats[k])
		}
	}
	return nil
}

// simSpans are the Simulator calls that simulate.
var simSpans = []string{spanRun, spanUnprotected, spanLockstep, spanRMT, spanClassify}

func (f *figureCold) layers(ss *spanSet, ops int, out metrics) {
	n := float64(ops)
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / n }
	var simT time.Duration
	var sims int
	for _, name := range simSpans {
		t, c := ss.sum(name)
		simT += t
		sims += c
	}
	out.setLayer("paradet.sims_per_op", float64(sims)/n)
	out.setLayer("paradet.sim_ms_per_op", perOp(simT))
	classT, classN := ss.sum(spanClassify)
	out.setLayer("fault.classifications_per_op", float64(classN)/n)
	out.setLayer("fault.ms_per_op", perOp(classT))
	lockT, _ := ss.sum(spanLockstep)
	out.setLayer("lockstep.ms_per_op", perOp(lockT))
	rmtT, _ := ss.sum(spanRMT)
	out.setLayer("rmt.ms_per_op", perOp(rmtT))
	loadT, loads := ss.sum(spanLoad)
	out.setLayer("campaign.loads_per_op", float64(loads)/n)
	out.setLayer("campaign.load_ms_per_op", perOp(loadT))

	// Campaign self time has two parts: figure time outside any cell or
	// workload load (spec expansion, rendering), and cell time outside
	// simulator calls and store writes (store lookups, waits on a
	// memoised baseline another worker is simulating).
	var outside time.Duration
	for _, fig := range coldFigures {
		outside += ss.selfSum("figure." + fig.name)
	}
	writeT := time.Duration(f.store.writeSecs * 1e9)
	out.setLayer("campaign.self_ms_per_op", perOp(outside+f.cellTotal-simT-writeT))
	out.setLayer("campaign.cell_ms_p50", median(f.cellMS))
	out.setLayer("campaign.reference_sims_per_op", float64(f.refSims)/n)
	opT, _ := ss.sum("op")
	out.setLayer("campaign.worker_busy_ratio", f.cellTotal.Seconds()/(figWorkers*opT.Seconds()))
	out.setLayer("resultstore.puts_per_op", float64(f.store.writes)/n)
	out.setLayer("resultstore.put_ms_per_op", perOp(writeT))
	out.setLayer("resultstore.misses_per_op", float64(f.store.misses)/n)
}

func (f *figureCold) close() {}
