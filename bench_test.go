package paradet_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. Sweep-shaped benchmarks are declared as campaign
// specs — the figures' own, from internal/experiments — and executed
// through internal/campaign's parallel sweep engine, the same path
// cmd/experiments uses, so the harness also exercises the production
// fan-out machinery. Benchmarks run reduced instruction samples so
// `go test -bench=.` is minutes, not hours; cmd/experiments runs the
// full-size sweeps. Figures are reported through b.ReportMetric, so
// `-benchmem`-style tooling can track the reproduced numbers over time.

import (
	"fmt"
	"testing"

	"paradet"
	"paradet/internal/bench"
	"paradet/internal/campaign"
	"paradet/internal/experiments"
)

const benchInstrs = 40_000

func benchWorkload(b *testing.B, name string) *paradet.Program {
	b.Helper()
	p, _, err := paradet.LoadWorkload(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchConfig() paradet.Config {
	cfg := paradet.DefaultConfig()
	cfg.MaxInstrs = benchInstrs
	return cfg
}

// benchPoint wraps a config tweak into one campaign point.
func benchPoint(label string, mutate func(*paradet.Config)) campaign.Point {
	cfg := benchConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return campaign.Point{Label: label, Config: cfg}
}

// benchSweep executes a campaign spec once and fails the benchmark on
// any spec-level or per-run error.
func benchSweep(b *testing.B, spec campaign.Spec) *campaign.Outcome {
	b.Helper()
	out, err := campaign.Execute(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := out.Err(); err != nil {
		b.Fatal(err)
	}
	return out
}

func allWorkloads() []string {
	var names []string
	for _, w := range paradet.Workloads() {
		names = append(names, w.Name)
	}
	return names
}

// BenchmarkTable1_DefaultConfig verifies and times a full protected run
// at the paper's Table I configuration.
func BenchmarkTable1_DefaultConfig(b *testing.B) {
	p := benchWorkload(b, "stream")
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := paradet.Run(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.IPC, "ipc")
			b.ReportMetric(float64(res.Instructions)/float64(res.TimeNS)*1000, "simMIPS/usSim")
		}
	}
}

// BenchmarkTable2_Workloads sweeps every workload (protected) through
// the campaign engine, regenerating the Table II inventory.
func BenchmarkTable2_Workloads(b *testing.B) {
	spec := campaign.Spec{
		Name:      "bench-table2",
		Workloads: allWorkloads(),
		Points:    []campaign.Point{benchPoint("tableI", nil)},
	}
	for i := 0; i < b.N; i++ {
		out := benchSweep(b, spec)
		if i == 0 {
			b.ReportMetric(float64(len(out.Results)), "workloads")
		}
	}
}

// BenchmarkFigures regenerates every paper figure at a reduced size:
// one sub-benchmark per distinct campaign of experiments.SpecNamed, so
// the grids are the figures' own (fig11 shares fig9's sweep; area is
// analytic and runs none). Two contrasting workloads — compute-bound
// bitcount and memory-bound stream — keep the run short; fig1d always
// compares schemes on its own workload. Each cell reports its slowdown
// (campaigns with a baseline) and mean detection delay (cells with
// checkers); fault campaigns report their coverage.
func BenchmarkFigures(b *testing.B) {
	o := experiments.Options{MaxInstrs: benchInstrs, Workloads: []string{"bitcount", "stream"}}
	seen := map[string]bool{}
	for _, name := range experiments.Names() {
		spec, err := experiments.SpecNamed(name, o)
		if err != nil || seen[spec.Name] {
			continue // analytic, or a campaign another figure already ran
		}
		seen[spec.Name] = true
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := benchSweep(b, spec)
				if i > 0 {
					continue
				}
				if spec.Faults != nil {
					rep, err := experiments.FaultReportFromOutcome(out)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rep.Coverage, "coverage")
					continue
				}
				for j := range out.Results {
					r := &out.Results[j]
					cell := r.Workload + "@" + r.Point.Label
					if spec.WithBaseline {
						b.ReportMetric(r.Slowdown, "slowdown/"+cell)
					}
					if !r.Config.DisableCheckers { // checkpoint-only cells (fig10) have no delay
						b.ReportMetric(r.MeanDelayNS(), "meanDelayNs/"+cell)
					}
				}
			}
		})
	}
}

// benchFaultKernel mirrors the store-chain kernel of the fault tests:
// nearly every value feeds stores, so single-bit corruption is
// architecturally visible.
const benchFaultKernel = `
	.equ N, 120
_start:
	la   x1, buf
	movz x2, 1          ; i
	movz x3, 7          ; acc
loop:
	mul  x3, x3, x2
	addi x3, x3, 13
	xor  x3, x3, x2
	strd x3, [x1]
	addi x1, x1, 8
	addi x2, x2, 1
	slti x4, x2, N
	bne  x4, xzr, loop
	mov  x0, x3
	svc
	hlt
	.align 8
buf: .space 1024
`

// BenchmarkFaultCampaign measures end-to-end fault-injection throughput
// (not a paper figure, but the coverage claim behind §IV).
func BenchmarkFaultCampaign(b *testing.B) {
	p := paradet.MustAssemble(benchFaultKernel)
	cfg := paradet.DefaultConfig()
	cfg.NumCheckers = 4
	cfg.LogBytes = 4 * 4 * 1024
	cfg.MaxInstrs = 60_000
	for i := 0; i < b.N; i++ {
		camp, err := paradet.RunCampaign(cfg, p, 5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if camp.Counts[paradet.OutcomeSilent] > 0 {
			b.Fatal("silent corruption inside the sphere")
		}
	}
}

// BenchmarkFaultGridCampaign measures the first-class fault-campaign
// path: a deterministic target × seq × bit grid classified through the
// campaign engine with a memoised golden run. (Pinned subset: shared
// with cmd/pdbench via internal/bench.)
func BenchmarkFaultGridCampaign(b *testing.B) { bench.FaultGridCampaign(b) }

// BenchmarkStoreWarmSweep measures the persistent result store's
// cache-hit path: a Fig. 7-shaped sweep against a fully warm store,
// which must perform zero simulations per iteration. (Pinned subset:
// shared with cmd/pdbench via internal/bench.)
func BenchmarkStoreWarmSweep(b *testing.B) { bench.StoreWarmSweep(b) }

// BenchmarkSimulatorThroughput tracks raw simulation speed (committed
// instructions per wall second) for engineering regressions. (Pinned
// subset: shared with cmd/pdbench via internal/bench.)
func BenchmarkSimulatorThroughput(b *testing.B) { bench.SimulatorThroughput(b) }

// BenchmarkSimulatorThroughputTelemetry is the same run with an
// interval telemetry probe attached — the live cost of sampling.
// (Pinned subset: shared with cmd/pdbench via internal/bench.)
func BenchmarkSimulatorThroughputTelemetry(b *testing.B) { bench.SimulatorThroughputTelemetry(b) }

// BenchmarkCampaignScaling measures the sweep engine's parallel speedup
// on a fixed 9-workload grid (near-linear on multi-core hosts). The
// 4-worker point is the pinned campaign_scaling case of cmd/pdbench.
func BenchmarkCampaignScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			bench.CampaignScaling(b, workers)
		})
	}
}

// ---- Ablations (design-choice sensitivity) ----

// BenchmarkAblation_CheckpointCost sweeps the register-checkpoint commit
// pause, the design parameter behind the paper's 16-cycle assumption.
func BenchmarkAblation_CheckpointCost(b *testing.B) {
	var pts []campaign.Point
	for _, cycles := range []int64{0, 16, 64} {
		cycles := cycles
		pts = append(pts, benchPoint(fmt.Sprintf("%dcyc", cycles),
			func(c *paradet.Config) { c.CheckpointCycles = cycles }))
	}
	spec := campaign.Spec{
		Name:         "bench-ablate-ckpt",
		Workloads:    []string{"bodytrack"},
		Points:       pts,
		WithBaseline: true,
	}
	for i := 0; i < b.N; i++ {
		out := benchSweep(b, spec)
		if i == 0 {
			for j := range out.Results {
				r := &out.Results[j]
				b.ReportMetric(r.Slowdown, "slowdown/"+r.Point.Label)
			}
		}
	}
}

// BenchmarkAblation_Timeout sweeps the segment instruction timeout on the
// two-phase bitcount kernel (the paper's §VI-A example of timeouts
// rescuing worst-case latency on store-free instruction runs).
func BenchmarkAblation_Timeout(b *testing.B) {
	var pts []campaign.Point
	for _, timeout := range []uint64{1000, 5000, paradet.NoTimeout} {
		timeout := timeout
		label := fmt.Sprintf("%d", timeout)
		if timeout == paradet.NoTimeout {
			label = "inf"
		}
		pts = append(pts, benchPoint(label, func(c *paradet.Config) {
			c.MaxInstrs = 120_000
			c.TimeoutInstrs = timeout
		}))
	}
	spec := campaign.Spec{
		Name:      "bench-ablate-timeout",
		Workloads: []string{"bitcount"},
		Points:    pts,
	}
	for i := 0; i < b.N; i++ {
		out := benchSweep(b, spec)
		if i == 0 {
			for j := range out.Results {
				r := &out.Results[j]
				b.ReportMetric(r.Res.Delay.MaxNS, "maxDelayNs/"+r.Point.Label)
			}
		}
	}
}

// BenchmarkAblation_InterruptRate measures the cost of interrupt-boundary
// checkpoints (§IV-G): even a 10 us tick is negligible.
func BenchmarkAblation_InterruptRate(b *testing.B) {
	var pts []campaign.Point
	for _, ns := range []uint64{0, 100_000, 10_000} {
		ns := ns
		pts = append(pts, benchPoint(fmt.Sprintf("%dns", ns),
			func(c *paradet.Config) { c.InterruptIntervalNS = ns }))
	}
	spec := campaign.Spec{
		Name:         "bench-ablate-irq",
		Workloads:    []string{"stream"},
		Points:       pts,
		WithBaseline: true,
	}
	for i := 0; i < b.N; i++ {
		out := benchSweep(b, spec)
		if i == 0 {
			for j := range out.Results {
				r := &out.Results[j]
				b.ReportMetric(r.Slowdown, "slowdown/"+r.Point.Label)
			}
		}
	}
}
