package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"paradet"
)

// testPoints sweeps three checker clocks: enough points to make baseline
// sharing observable while keeping runs tiny.
func testPoints() []Point {
	var pts []Point
	for _, hz := range []uint64{250_000_000, 500_000_000, 1_000_000_000} {
		cfg := paradet.DefaultConfig()
		cfg.CheckerHz = hz
		pts = append(pts, Point{Label: label(hz), Config: cfg})
	}
	return pts
}

func label(hz uint64) string {
	switch hz {
	case 250_000_000:
		return "250MHz"
	case 500_000_000:
		return "500MHz"
	default:
		return "1GHz"
	}
}

func testSpec(parallel int) Spec {
	return Spec{
		Name:         "test",
		Workloads:    []string{"randacc", "bitcount"},
		Points:       testPoints(),
		MaxInstrs:    4000,
		WithBaseline: true,
		Parallel:     parallel,
	}
}

// snapshot projects the scheduling-independent parts of a run for
// comparison (maps inside Result marshal with sorted keys).
func snapshot(t *testing.T, runs []Run) string {
	t.Helper()
	type cell struct {
		Workload string
		Label    string
		Slowdown float64
		Res      *paradet.Result
		Baseline *paradet.Result
	}
	var cells []cell
	for i := range runs {
		r := &runs[i]
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Workload, r.Point.Label, r.Err)
		}
		cells = append(cells, cell{r.Workload, r.Point.Label, r.Slowdown, r.Res, r.Baseline})
	}
	b, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDeterministicAcrossWorkerCounts asserts that the sweep produces
// identical results, in identical order, for worker counts 1, 2 and 8.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		out, err := Execute(testSpec(workers), nil)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		got := snapshot(t, out.Results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallel=%d produced different results than parallel=1", workers)
		}
	}
}

// countingSim wraps the real simulator and counts baseline simulations.
type countingSim struct {
	Simulator
	unprotected atomic.Int64
}

func (c *countingSim) RunUnprotected(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	c.unprotected.Add(1)
	return c.Simulator.RunUnprotected(ctx, cfg, p)
}

// TestBaselineSimulatedOncePerWorkload asserts the memoisation contract:
// a campaign sweeping three config points per workload performs exactly
// one unprotected baseline simulation per unique (workload, MaxInstrs).
func TestBaselineSimulatedOncePerWorkload(t *testing.T) {
	sim := &countingSim{Simulator: Default()}
	spec := testSpec(4)
	out, err := Execute(spec, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(out.Results), len(spec.Workloads)*len(spec.Points); got != want {
		t.Fatalf("results = %d, want %d", got, want)
	}
	if got, want := int(sim.unprotected.Load()), len(spec.Workloads); got != want {
		t.Errorf("baseline simulations = %d, want exactly %d (one per workload)", got, want)
	}
	if out.Stats.BaselineSims != len(spec.Workloads) {
		t.Errorf("BaselineSims = %d, want %d", out.Stats.BaselineSims, len(spec.Workloads))
	}
	for i := range out.Results {
		if out.Results[i].Baseline == nil || out.Results[i].Slowdown <= 0 {
			t.Errorf("%s/%s: missing baseline or slowdown",
				out.Results[i].Workload, out.Results[i].Point.Label)
		}
	}
	// Runs of one workload share the one memoised baseline object.
	if out.Results[0].Baseline != out.Results[1].Baseline {
		t.Error("sweep points of one workload must share the memoised baseline")
	}
}

// TestDistinctMaxInstrsGetDistinctBaselines asserts the cache key
// includes the sample length.
func TestDistinctMaxInstrsGetDistinctBaselines(t *testing.T) {
	sim := &countingSim{Simulator: Default()}
	cfgA := paradet.DefaultConfig()
	cfgA.MaxInstrs = 3000
	cfgB := paradet.DefaultConfig()
	cfgB.MaxInstrs = 5000
	out, err := Execute(Spec{
		Name:      "instrs",
		Workloads: []string{"randacc"},
		Points: []Point{
			{Label: "3k", Config: cfgA},
			{Label: "5k", Config: cfgB},
		},
		WithBaseline: true,
		Parallel:     2,
	}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if got := int(sim.unprotected.Load()); got != 2 {
		t.Errorf("baseline simulations = %d, want 2 (distinct MaxInstrs)", got)
	}
}

// TestPerRunErrorsDoNotAbortSweep asserts that a failing point is
// recorded on its run while the rest of the sweep completes.
func TestPerRunErrorsDoNotAbortSweep(t *testing.T) {
	bad := paradet.DefaultConfig()
	bad.NumCheckers = 1 // rejected by Config.Validate
	good := paradet.DefaultConfig()
	out, err := Execute(Spec{
		Name:      "mixed",
		Workloads: []string{"randacc"},
		Points: []Point{
			{Label: "bad", Config: bad},
			{Label: "good", Config: good},
		},
		MaxInstrs: 3000,
		Parallel:  2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Err == nil {
		t.Error("bad point must record its error")
	}
	if out.Results[1].Err != nil {
		t.Errorf("good point must survive: %v", out.Results[1].Err)
	}
	if out.Results[1].Res == nil {
		t.Error("good point must carry its result")
	}
	joined := out.Err()
	if joined == nil || !strings.Contains(joined.Error(), "bad") {
		t.Errorf("Outcome.Err must aggregate the failure, got %v", joined)
	}
}

// TestUnknownWorkloadPoisonsOnlyItsRuns asserts load failures are
// per-run, not sweep-fatal.
func TestUnknownWorkloadPoisonsOnlyItsRuns(t *testing.T) {
	out, err := Execute(Spec{
		Name:      "missing",
		Workloads: []string{"no-such-workload", "randacc"},
		Points:    []Point{{Label: "tableI", Config: paradet.DefaultConfig()}},
		MaxInstrs: 3000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Err == nil {
		t.Error("unknown workload must record a load error")
	}
	if out.Results[1].Err != nil {
		t.Errorf("known workload must still run: %v", out.Results[1].Err)
	}
}

// TestSchemePointsSelectSimulators asserts per-point scheme overrides
// (the Fig. 1d shape) dispatch to the right baselines.
func TestSchemePointsSelectSimulators(t *testing.T) {
	cfg := paradet.DefaultConfig()
	out, err := Execute(Spec{
		Name:      "schemes",
		Workloads: []string{"bitcount"},
		Points: []Point{
			{Label: "lockstep", Config: cfg, Scheme: SchemeLockstep},
			{Label: "rmt", Config: cfg, Scheme: SchemeRMT},
			{Label: "paradet", Config: cfg, Scheme: SchemeProtected},
		},
		MaxInstrs:    4000,
		WithBaseline: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Aux == nil || out.Results[0].Aux.Scheme != "lockstep" {
		t.Errorf("lockstep point: aux = %+v", out.Results[0].Aux)
	}
	if out.Results[1].Aux == nil || out.Results[1].Aux.Scheme != "rmt" {
		t.Errorf("rmt point: aux = %+v", out.Results[1].Aux)
	}
	if out.Results[2].Res == nil || !out.Results[2].Res.Protected {
		t.Error("protected point must produce a protected Result")
	}
	for i := range out.Results {
		if out.Results[i].Slowdown <= 0 {
			t.Errorf("%s: slowdown not computed", out.Results[i].Point.Label)
		}
	}
}

// TestSpecValidation covers spec-level rejection.
func TestSpecValidation(t *testing.T) {
	if _, err := Execute(Spec{Name: "empty"}, nil); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Execute(Spec{
		Name:      "badscheme",
		Workloads: []string{"randacc"},
		Points:    []Point{{Label: "x", Config: paradet.DefaultConfig(), Scheme: "warp-drive"}},
	}, nil); err == nil {
		t.Error("unknown scheme accepted")
	}
}
