package campaign

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"paradet"
	"paradet/internal/resultstore"
)

// trackingSim counts every simulation entry point, standing in for a
// fresh process in store-reuse tests.
type trackingSim struct {
	Simulator
	runs, unprotected, lockstep, rmt, classify atomic.Int64
}

func newTrackingSim() *trackingSim { return &trackingSim{Simulator: Default()} }

func (c *trackingSim) Run(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	c.runs.Add(1)
	return c.Simulator.Run(ctx, cfg, p)
}

func (c *trackingSim) RunUnprotected(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	c.unprotected.Add(1)
	return c.Simulator.RunUnprotected(ctx, cfg, p)
}

func (c *trackingSim) RunLockstep(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error) {
	c.lockstep.Add(1)
	return c.Simulator.RunLockstep(ctx, cfg, p)
}

func (c *trackingSim) RunRMT(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.BaselineResult, error) {
	c.rmt.Add(1)
	return c.Simulator.RunRMT(ctx, cfg, p)
}

func (c *trackingSim) ClassifyFault(ctx context.Context, cfg paradet.Config, p *paradet.Program, f paradet.Fault, golden *paradet.Result) (paradet.FaultRecord, error) {
	c.classify.Add(1)
	return c.Simulator.ClassifyFault(ctx, cfg, p, f, golden)
}

func (c *trackingSim) total() int64 {
	return c.runs.Load() + c.unprotected.Load() + c.lockstep.Load() + c.rmt.Load() + c.classify.Load()
}

// TestStoreReuseAcrossProcesses is the subsystem's core contract: a
// second Execute of the same spec against the same store directory —
// through a fresh Store handle and a fresh Simulator, as a separate
// process would hold — performs zero simulations and reproduces the
// results exactly.
func TestStoreReuseAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4)

	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim1 := newTrackingSim()
	out1, err := ExecuteContext(context.Background(), spec, sim1, Options{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	if err := out1.Err(); err != nil {
		t.Fatal(err)
	}
	if sim1.total() == 0 {
		t.Fatal("cold store performed no simulations")
	}
	if out1.Stats.CellHits != 0 || out1.Stats.BaselineHits != 0 {
		t.Errorf("cold store reported hits: %+v", out1.Stats)
	}

	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim2 := newTrackingSim()
	out2, err := ExecuteContext(context.Background(), spec, sim2, Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if err := out2.Err(); err != nil {
		t.Fatal(err)
	}
	if n := sim2.total(); n != 0 {
		t.Errorf("warm store performed %d simulations, want 0", n)
	}
	if out2.Stats.CellSims != 0 || out2.Stats.BaselineSims != 0 {
		t.Errorf("warm-store sim counters non-zero: %+v", out2.Stats)
	}
	if out2.Stats.CellHits != len(out2.Results) {
		t.Errorf("CellHits = %d, want %d", out2.Stats.CellHits, len(out2.Results))
	}
	for i := range out2.Results {
		if !out2.Results[i].Cached {
			t.Errorf("cell %d not marked cached", i)
		}
	}
	if a, b := snapshot(t, out1.Results), snapshot(t, out2.Results); a != b {
		t.Error("store-served results differ from simulated results")
	}
}

// TestStoreServesMixedSchemes asserts lockstep/RMT/unprotected cells
// persist and reload too (the Fig. 1d shape).
func TestStoreServesMixedSchemes(t *testing.T) {
	dir := t.TempDir()
	cfg := paradet.DefaultConfig()
	spec := Spec{
		Name:      "mixed-store",
		Workloads: []string{"bitcount"},
		Points: []Point{
			{Label: "lockstep", Config: cfg, Scheme: SchemeLockstep},
			{Label: "rmt", Config: cfg, Scheme: SchemeRMT},
			{Label: "unprot", Config: cfg, Scheme: SchemeUnprotected},
			{Label: "paradet", Config: cfg, Scheme: SchemeProtected},
		},
		MaxInstrs:    4000,
		WithBaseline: true,
		Parallel:     2,
	}
	st, _ := resultstore.Open(dir)
	if out, err := ExecuteContext(context.Background(), spec, nil, Options{Store: st}); err != nil {
		t.Fatal(err)
	} else if err := out.Err(); err != nil {
		t.Fatal(err)
	}

	st2, _ := resultstore.Open(dir)
	sim := newTrackingSim()
	out, err := ExecuteContext(context.Background(), spec, sim, Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if n := sim.total(); n != 0 {
		t.Errorf("warm store simulated %d times, want 0", n)
	}
	if out.Results[0].Aux == nil || out.Results[0].Aux.Scheme != "lockstep" {
		t.Errorf("lockstep cell not reloaded: %+v", out.Results[0].Aux)
	}
	if out.Results[3].Res == nil || !out.Results[3].Res.Protected {
		t.Error("protected cell not reloaded")
	}
	for i := range out.Results {
		if out.Results[i].Slowdown <= 0 {
			t.Errorf("%s: slowdown not recomputed from store", out.Results[i].Point.Label)
		}
	}
}

// TestReferenceMemoisation asserts that points sharing a store key
// share one simulation: lockstep/RMT points that differ only in knobs
// their scheme ignores (checker knobs; the main-core clock under
// BigCore), counted in BaselineSims, and identical protected points,
// counted in CellSims.
func TestReferenceMemoisation(t *testing.T) {
	cfg := paradet.DefaultConfig()
	alt := cfg
	alt.CheckerHz = 500_000_000 // checker knobs are irrelevant to lockstep/RMT
	big := cfg
	big.BigCore = true
	bigAlt := big
	bigAlt.MainCoreHz = 2_000_000_000 // BigCore ignores MainCoreHz
	sim := newTrackingSim()
	hits0, sims0 := obsCellHit.Value(), obsCellSim.Value()
	out, err := Execute(Spec{
		Name:      "refs",
		Workloads: []string{"bitcount"},
		Points: []Point{
			{Label: "ls-a", Config: cfg, Scheme: SchemeLockstep},
			{Label: "ls-b", Config: alt, Scheme: SchemeLockstep},
			{Label: "rmt-a", Config: cfg, Scheme: SchemeRMT},
			{Label: "rmt-b", Config: alt, Scheme: SchemeRMT},
			{Label: "ls-big-a", Config: big, Scheme: SchemeLockstep},
			{Label: "ls-big-b", Config: bigAlt, Scheme: SchemeLockstep},
			{Label: "rmt-big-a", Config: big, Scheme: SchemeRMT},
			{Label: "rmt-big-b", Config: bigAlt, Scheme: SchemeRMT},
			{Label: "prot-a", Config: cfg, Scheme: SchemeProtected},
			{Label: "prot-b", Config: cfg, Scheme: SchemeProtected},
		},
		MaxInstrs: 4000,
		Parallel:  4,
	}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if got := sim.lockstep.Load(); got != 2 {
		t.Errorf("lockstep simulations = %d, want 2 (one per main core)", got)
	}
	if got := sim.rmt.Load(); got != 2 {
		t.Errorf("rmt simulations = %d, want 2 (one per main core)", got)
	}
	if got := sim.runs.Load(); got != 1 {
		t.Errorf("protected simulations = %d, want 1 (memoised)", got)
	}
	if out.Stats.BaselineSims != 4 || out.Stats.CellSims != 1 {
		t.Errorf("BaselineSims, CellSims = %d, %d, want 4, 1", out.Stats.BaselineSims, out.Stats.CellSims)
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}} {
		a, b := &out.Results[pair[0]], &out.Results[pair[1]]
		if a.Aux != b.Aux {
			t.Errorf("%s and %s must share the memoised result", a.Point.Label, b.Point.Label)
		}
	}
	if out.Results[0].Aux == out.Results[4].Aux {
		t.Error("lockstep on the Table I core and on the big core must not share a result")
	}
	if a, b := &out.Results[8], &out.Results[9]; a.Res == nil || a.Res != b.Res {
		t.Error("duplicate protected points must share the memoised result")
	}
	// A cell the memo served from an identical cell's run simulated
	// nothing of its own: it is Cached and counts as a hit.
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}} {
		a, b := &out.Results[pair[0]], &out.Results[pair[1]]
		if a.Cached == b.Cached {
			t.Errorf("%s, %s Cached = %v, %v: want exactly one served by the other's run",
				a.Point.Label, b.Point.Label, a.Cached, b.Cached)
		}
	}
	if hits, sims := obsCellHit.Value()-hits0, obsCellSim.Value()-sims0; hits != 5 || sims != 5 {
		t.Errorf(`cells_total{state="hit"}, {state="sim"} rose by %d, %d, want 5, 5`, hits, sims)
	}
}

// TestFaultGridCampaign asserts the fault dimension expands like
// points, classifies deterministically, and memoises through the
// store: the second run performs zero simulations including goldens.
func TestFaultGridCampaign(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Name:      "faults",
		Workloads: []string{"bitcount"},
		Points:    []Point{{Label: "tableI", Config: paradet.DefaultConfig()}},
		MaxInstrs: 4000,
		Parallel:  4,
		Faults: &FaultGrid{
			Targets: []paradet.FaultTarget{paradet.FaultDestReg, paradet.FaultStoreValue},
			Seqs:    []uint64{40, 400},
			Bits:    []uint8{5},
		},
	}
	st, _ := resultstore.Open(dir)
	sim1 := newTrackingSim()
	out1, err := ExecuteContext(context.Background(), spec, sim1, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := out1.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out1.Results) != 4 {
		t.Fatalf("cells = %d, want 4 (2 targets x 2 seqs x 1 bit)", len(out1.Results))
	}
	for i := range out1.Results {
		r := &out1.Results[i]
		if r.Fault == nil || r.FaultRec == nil {
			t.Fatalf("cell %d missing fault or record: %+v", i, r)
		}
		if r.FaultRec.Outcome == "" {
			t.Errorf("cell %d unclassified", i)
		}
		if r.FaultRec.Outcome == paradet.OutcomeSilent {
			t.Errorf("in-sphere fault %v escaped silently", *r.Fault)
		}
	}
	// Deterministic expansion order: target-major.
	if out1.Results[0].Fault.Target != paradet.FaultDestReg || out1.Results[0].Fault.Seq != 40 {
		t.Errorf("expansion order wrong: first fault %+v", out1.Results[0].Fault)
	}
	if got := sim1.runs.Load(); got != 1 {
		t.Errorf("golden runs = %d, want 1 (memoised per workload and config)", got)
	}

	st2, _ := resultstore.Open(dir)
	sim2 := newTrackingSim()
	out2, err := ExecuteContext(context.Background(), spec, sim2, Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if err := out2.Err(); err != nil {
		t.Fatal(err)
	}
	if n := sim2.total(); n != 0 {
		t.Errorf("warm fault campaign simulated %d times (golden must stay lazy), want 0", n)
	}
	for i := range out2.Results {
		if out2.Results[i].FaultRec.Outcome != out1.Results[i].FaultRec.Outcome {
			t.Errorf("cell %d outcome changed across store reload", i)
		}
	}
}

// TestFaultGridValidation covers fault-dimension spec rejection.
func TestFaultGridValidation(t *testing.T) {
	base := Spec{
		Name:      "bad-faults",
		Workloads: []string{"bitcount"},
		Points:    []Point{{Label: "p", Config: paradet.DefaultConfig()}},
		MaxInstrs: 3000,
	}

	s := base
	s.Faults = &FaultGrid{Targets: []paradet.FaultTarget{"warp-core"}, Seqs: []uint64{1}, Bits: []uint8{0}}
	if _, err := Execute(s, nil); err == nil || !strings.Contains(err.Error(), "warp-core") {
		t.Errorf("unknown target accepted: %v", err)
	}

	s = base
	s.Faults = &FaultGrid{Targets: []paradet.FaultTarget{paradet.FaultDestReg}, Seqs: []uint64{0}, Bits: []uint8{0}}
	if _, err := Execute(s, nil); err == nil {
		t.Error("zero seq accepted")
	}

	s = base
	s.Faults = &FaultGrid{Targets: []paradet.FaultTarget{paradet.FaultDestReg}, Seqs: []uint64{1}, Bits: []uint8{64}}
	if _, err := Execute(s, nil); err == nil {
		t.Error("bit 64 accepted")
	}

	s = base
	s.Faults = &FaultGrid{Targets: []paradet.FaultTarget{paradet.FaultDestReg}, Seqs: []uint64{1}, Bits: []uint8{0}}
	s.Points[0].Scheme = SchemeLockstep
	if _, err := Execute(s, nil); err == nil {
		t.Error("fault grid with lockstep scheme accepted")
	}
}

// TestCancellation asserts a cancelled context stops the sweep between
// cells and surfaces context.Canceled.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first cell
	out, err := ExecuteContext(ctx, testSpec(2), nil, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range out.Results {
		if !errors.Is(out.Results[i].Err, context.Canceled) {
			t.Errorf("cell %d err = %v, want context.Canceled", i, out.Results[i].Err)
		}
	}
}

// TestProgressCallback asserts one event per cell with monotone Done
// and consistent totals.
func TestProgressCallback(t *testing.T) {
	spec := testSpec(4)
	var events []Progress
	out, err := ExecuteContext(context.Background(), spec, nil, Options{
		Progress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(out.Results) {
		t.Fatalf("events = %d, want %d", len(events), len(out.Results))
	}
	for i, e := range events {
		if e.Done != i+1 || e.Total != len(out.Results) {
			t.Errorf("event %d: Done=%d Total=%d", i, e.Done, e.Total)
		}
		if e.Workload == "" || e.Label == "" {
			t.Errorf("event %d missing cell identity: %+v", i, e)
		}
	}
	last := events[len(events)-1]
	if last.BaselineSims != out.Stats.BaselineSims || last.CellSims != out.Stats.CellSims {
		t.Errorf("final event counters %+v disagree with stats %+v", last, out.Stats)
	}
}

// TestOutcomeErrIncludesScheme asserts mixed-scheme campaigns name the
// failing variant (the Fig. 1d debugging fix).
func TestOutcomeErrIncludesScheme(t *testing.T) {
	bad := paradet.DefaultConfig()
	bad.NumCheckers = 1 // rejected by Config.Validate
	out, err := Execute(Spec{
		Name:      "mixed-err",
		Workloads: []string{"bitcount"},
		Points: []Point{
			{Label: "pt", Config: bad, Scheme: SchemeProtected},
		},
		MaxInstrs: 3000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := out.Err()
	if joined == nil || !strings.Contains(joined.Error(), "[protected]") {
		t.Errorf("Outcome.Err must name the scheme, got %v", joined)
	}
}
