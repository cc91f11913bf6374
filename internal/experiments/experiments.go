// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). One table lists the experiments: each entry names
// an experiment, builds its sweep as a campaign spec — workloads ×
// config points × scheme — and turns the campaign's outcome into rows
// and a text rendering. Generate executes a spec through
// internal/campaign's parallel sweep engine, which fans runs across a
// worker pool and memoises the unprotected baselines; SpecNamed hands
// the same spec to consumers that resolve cells themselves (the serving
// layer, the root figure benchmarks), so no two of them can disagree
// about a grid. The cmd/experiments binary is a thin wrapper over this
// package.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"paradet"
	"paradet/internal/campaign"
	"paradet/internal/resultstore"
)

// Options scales the experiments. The paper simulates full benchmarks in
// gem5; we sample a configurable number of committed instructions.
type Options struct {
	// MaxInstrs per run; 0 selects each workload's default sample.
	MaxInstrs uint64
	// Workloads to sweep; nil selects the paper's nine.
	Workloads []string
	// Parallel bounds the sweep worker pool (0 = GOMAXPROCS).
	Parallel int
	// Context cancels long sweeps between cells (nil = background).
	Context context.Context
	// Store, when non-nil, memoises cells persistently across
	// processes; re-running an experiment against a warm store
	// simulates nothing and reproduces stdout byte-identically.
	Store *resultstore.Store
	// Progress, when non-nil, observes every completed cell.
	Progress campaign.ProgressFunc
	// Stats, when non-nil, accumulates cache/simulation counters
	// across every sweep an experiment performs.
	Stats *campaign.Stats
	// Shard, when non-nil, restricts every sweep to its slice of the
	// expanded grid (cmd/experiments -shard i/n). Sharded runs exist to
	// populate a store, not to render figures: rows for cells another
	// shard owns are simply absent, and the full figures come from
	// re-running unsharded against the merged store.
	Shard *campaign.Shard
	// Telemetry, when non-nil, writes per-cell interval telemetry
	// sidecars for every simulated protected cell
	// (cmd/experiments -telemetry). Out-of-band: stdout and stored
	// results are unchanged.
	Telemetry *campaign.TelemetryOptions
	// Sim executes the sweeps (nil = the real simulator). The serving
	// layer and tests substitute counting or gating fakes here.
	Sim campaign.Simulator
}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	names := make([]string, 0, 9)
	for _, w := range paradet.Workloads() {
		names = append(names, w.Name)
	}
	return names
}

// spec lifts the options into a campaign over the given points.
func (o Options) spec(name string, points []campaign.Point, withBaseline bool) campaign.Spec {
	return campaign.Spec{
		Name:         name,
		Workloads:    o.workloads(),
		Points:       points,
		MaxInstrs:    o.MaxInstrs,
		WithBaseline: withBaseline,
		Parallel:     o.Parallel,
	}
}

// point wraps a config tweak into a single campaign point.
func point(label string, mutate func(*paradet.Config)) campaign.Point {
	cfg := paradet.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return campaign.Point{Label: label, Config: cfg}
}

// tableI is the single point at the paper's Table I defaults.
func tableI() []campaign.Point { return []campaign.Point{point("tableI", nil)} }

// perRun builds a figure from one row per run and a rendering of those
// rows. Cells another shard owns are dropped: they carry no payload,
// and figure rows must only reflect cells this execution actually
// produced. The first failed cell fails the figure with the historical
// "figN workload point: cause" error shape.
func perRun[R any](row func(*campaign.Run) R, text func([]R) string) func(*campaign.Outcome) (any, string, error) {
	return func(out *campaign.Outcome) (any, string, error) {
		rows := make([]R, 0, len(out.Results))
		for i := range out.Results {
			r := &out.Results[i]
			if r.Skipped {
				continue
			}
			if r.Err != nil {
				return nil, "", fmt.Errorf("%s %s %s: %w", out.Spec.Name, r.Workload, r.Point.Label, r.Err)
			}
			rows = append(rows, row(r))
		}
		return rows, text(rows), nil
	}
}

// pivot renders rows as a workload × column table under title: one line
// per workload, in the order the rows first name it, and one cell per
// column, w characters wide with prec decimals. cols fixes the columns;
// nil takes them in the order the rows first name them. A cell no row
// fills (another shard owns it) prints as zero.
func pivot[R any](title string, rows []R, cols []string, w, prec int, cell func(R) (workload, col string, v float64)) string {
	fixed := cols != nil
	byWl := map[string]map[string]float64{}
	var names []string
	for _, r := range rows {
		wl, col, v := cell(r)
		if !fixed && !slices.Contains(cols, col) {
			cols = append(cols, col)
		}
		if byWl[wl] == nil {
			byWl[wl] = map[string]float64{}
			names = append(names, wl)
		}
		byWl[wl][col] = v
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "  %-14s", "workload")
	for _, c := range cols {
		fmt.Fprintf(&b, "%*s", w, c)
	}
	b.WriteString("\n")
	for _, name := range names {
		fmt.Fprintf(&b, "  %-14s", name)
		for _, c := range cols {
			fmt.Fprintf(&b, "%*.*f", w, prec, byWl[name][c])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---- Fig. 7: normalised slowdown at default settings ----

// Fig7Row is one benchmark's slowdown at Table I defaults.
type Fig7Row struct {
	Workload string
	Slowdown float64
}

// fig7 reproduces "Normalised slowdown for each benchmark, at standard
// settings". Paper result: mean 1.75%, max 3.4%. The table prints the
// slowdowns plus the headline statistics.
var fig7 = perRun(func(r *campaign.Run) Fig7Row {
	return Fig7Row{Workload: r.Workload, Slowdown: r.Slowdown}
}, func(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Fig. 7: normalised slowdown at standard settings (Table I)\n")
	b.WriteString("paper: mean 1.0175, max 1.034\n\n")
	var sum, max float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %.4f\n", r.Workload, r.Slowdown)
		sum += r.Slowdown
		if r.Slowdown > max {
			max = r.Slowdown
		}
	}
	if len(rows) > 0 { // a shard may own none of this figure's cells
		fmt.Fprintf(&b, "  %-14s %.4f (max %.4f)\n", "MEAN", sum/float64(len(rows)), max)
	}
	return b.String()
})

// ---- Fig. 8: detection-delay density ----

// Fig8Row is one benchmark's delay distribution.
type Fig8Row struct {
	Workload     string
	MeanNS       float64
	MaxNS        float64
	FracBelow5us float64
	Density      []paradet.DensityPoint
}

// fig8 reproduces the "distribution of error detection delays" density
// plot as per-benchmark delay summaries. Paper: near-normal
// distributions, mean across benchmarks 770 ns, 99.9% of loads and
// stores within 5000 ns, max ~21.5 us average.
var fig8 = perRun(func(r *campaign.Run) Fig8Row {
	return Fig8Row{
		Workload:     r.Workload,
		MeanNS:       r.Res.Delay.MeanNS,
		MaxNS:        r.Res.Delay.MaxNS,
		FracBelow5us: r.Res.Delay.FracBelow5us,
		Density:      r.Res.DelayDensity,
	}
}, func(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Fig. 8: detection delay distribution at standard settings\n")
	b.WriteString("paper: mean 770 ns across benchmarks; >=99.9% within 5000 ns\n\n")
	fmt.Fprintf(&b, "  %-14s %10s %12s %10s\n", "workload", "mean ns", "max ns", "<5000ns")
	var meanSum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %10.0f %12.0f %9.3f%%\n",
			r.Workload, r.MeanNS, r.MaxNS, r.FracBelow5us*100)
		meanSum += r.MeanNS
	}
	if len(rows) > 0 { // a shard may own none of this figure's cells
		fmt.Fprintf(&b, "  %-14s %10.0f\n", "MEAN", meanSum/float64(len(rows)))
	}
	return b.String()
})

// ---- Fig. 9 / Fig. 11: checker-frequency sweeps ----

// CheckerFreqsHz are the paper's swept checker clocks.
var CheckerFreqsHz = []uint64{
	125_000_000, 250_000_000, 500_000_000, 1_000_000_000, 2_000_000_000,
}

// FreqRow is one (workload, frequency) sample.
type FreqRow struct {
	Workload string
	FreqHz   uint64
	Slowdown float64
	MeanNS   float64
	MaxNS    float64
}

// freqSpec sweeps checker frequency once for both Fig. 9 (slowdown) and
// Fig. 11 (mean and max detection delay), so the campaign is named
// fig9 whichever figure runs it.
// Paper: memory-bound benchmarks tolerate low clocks; compute-bound ones
// degrade sharply below 500 MHz; mean delay halves per clock doubling
// until the segment-fill time dominates.
func freqSpec(o Options) campaign.Spec {
	pts := make([]campaign.Point, 0, len(CheckerFreqsHz))
	for _, hz := range CheckerFreqsHz {
		pts = append(pts, point(freqLabel(hz), func(c *paradet.Config) { c.CheckerHz = hz }))
	}
	return o.spec("fig9", pts, true)
}

func freqRow(r *campaign.Run) FreqRow {
	return FreqRow{
		Workload: r.Workload,
		FreqHz:   r.Config.CheckerHz,
		Slowdown: r.Slowdown,
		MeanNS:   r.Res.Delay.MeanNS,
		MaxNS:    r.Res.Delay.MaxNS,
	}
}

// freqTable prints one value of each (workload, frequency) sample
// against the swept clocks.
func freqTable(title string, rows []FreqRow, prec int, val func(FreqRow) float64) string {
	cols := make([]string, 0, len(CheckerFreqsHz))
	for _, hz := range CheckerFreqsHz {
		cols = append(cols, freqLabel(hz))
	}
	return pivot(title, rows, cols, 8, prec, func(r FreqRow) (string, string, float64) {
		return r.Workload, freqLabel(r.FreqHz), val(r)
	})
}

func freqLabel(hz uint64) string {
	if hz >= 1_000_000_000 {
		return fmt.Sprintf("%gGHz", float64(hz)/1e9)
	}
	return fmt.Sprintf("%dMHz", hz/1_000_000)
}

// fig9 prints the slowdown-vs-frequency table.
var fig9 = perRun(freqRow, func(rows []FreqRow) string {
	return freqTable("Fig. 9: slowdown vs checker clock\n"+
		"paper: compute-bound benchmarks degrade sharply below 500 MHz\n",
		rows, 3, func(r FreqRow) float64 { return r.Slowdown })
})

// fig11 prints the delay-vs-frequency tables (mean and max).
var fig11 = perRun(freqRow, func(rows []FreqRow) string {
	return freqTable("Fig. 11(a): mean detection delay (ns) vs checker clock\n"+
		"paper: doubling the clock roughly halves the mean delay\n",
		rows, 0, func(r FreqRow) float64 { return r.MeanNS }) + "\n" +
		freqTable("Fig. 11(b): max detection delay (ns) vs checker clock\n",
			rows, 0, func(r FreqRow) float64 { return r.MaxNS })
})

// ---- Fig. 10 / Fig. 12: log-size and timeout sweeps ----

// LogConfig is one (log size, timeout) sweep point of Figs. 10 and 12.
type LogConfig struct {
	Label    string
	LogBytes int
	Timeout  uint64
}

// LogConfigs are the paper's swept configurations. The paper's Fig. 12
// additionally includes 36 KiB with an infinite timeout.
var LogConfigs = []LogConfig{
	{"3.6KiB/500", 3686, 500}, // paper rounds 3.6 KiB; 3686/12/16 ≈ 19 entries per segment
	{"36KiB/5000", 36 * 1024, 5000},
	{"360KiB/50000", 360 * 1024, 50000},
	{"360KiB/inf", 360 * 1024, paradet.NoTimeout},
	{"36KiB/inf", 36 * 1024, paradet.NoTimeout},
}

// logPoints builds campaign points from the log sweep, optionally with
// checkers disabled (Fig. 10's checkpoint-only measurement).
func logPoints(configs []LogConfig, disableCheckers bool) []campaign.Point {
	pts := make([]campaign.Point, 0, len(configs))
	for _, lc := range configs {
		pts = append(pts, point(lc.Label, func(c *paradet.Config) {
			c.LogBytes = lc.LogBytes
			c.TimeoutInstrs = lc.Timeout
			c.DisableCheckers = disableCheckers
		}))
	}
	return pts
}

// LogRow is one (workload, log config) sample.
type LogRow struct {
	Workload string
	Config   string
	Slowdown float64 // checkpoint-only slowdown for Fig. 10
	MeanNS   float64
	MaxNS    float64
}

// logTable prints one value of each (workload, log config) sample.
func logTable(title string, rows []LogRow, prec int, val func(LogRow) float64) string {
	return pivot(title, rows, nil, 14, prec, func(r LogRow) (string, string, float64) {
		return r.Workload, r.Config, val(r)
	})
}

// fig10Spec reproduces "slowdown to the system from just checkpointing,
// without any checker core execution" across log sizes and timeouts.
// Paper: <=2% at the default 36 KiB, up to 15% at 3.6 KiB/500.
// Fig. 10 uses the first four log configurations.
func fig10Spec(o Options) campaign.Spec {
	return o.spec("fig10", logPoints(LogConfigs[:4], true), true)
}

var fig10 = perRun(func(r *campaign.Run) LogRow {
	return LogRow{Workload: r.Workload, Config: r.Point.Label, Slowdown: r.Slowdown}
}, func(rows []LogRow) string {
	return logTable("Fig. 10: checkpoint-only slowdown vs log size/timeout\n"+
		"paper: <=2% at 36KiB default, up to 15% at 3.6KiB/500",
		rows, 3, func(r LogRow) float64 { return r.Slowdown })
})

// fig12Spec reproduces mean/max detection delay across log sizes and
// timeouts at the default checker clock.
// Paper: mean delay scales linearly with log size; without a timeout,
// sparse-memory code (bitcount) suffers huge maxima (250x reduction from
// a 50k timeout).
func fig12Spec(o Options) campaign.Spec {
	return o.spec("fig12", logPoints(LogConfigs, false), false)
}

var fig12 = perRun(func(r *campaign.Run) LogRow {
	return LogRow{
		Workload: r.Workload, Config: r.Point.Label,
		MeanNS: r.Res.Delay.MeanNS, MaxNS: r.Res.Delay.MaxNS,
	}
}, func(rows []LogRow) string {
	return logTable("Fig. 12(a): mean detection delay (ns) vs log size/timeout\n"+
		"paper: mean scales ~linearly with log size",
		rows, 0, func(r LogRow) float64 { return r.MeanNS }) + "\n" +
		logTable("Fig. 12(b): max detection delay (ns) vs log size/timeout",
			rows, 0, func(r LogRow) float64 { return r.MaxNS })
})

// ---- Fig. 13: core-count scaling ----

// CoreConfig is one point of the Fig. 13 sweep.
type CoreConfig struct {
	Label    string
	Checkers int
	FreqHz   uint64
}

// CoreConfigs are the paper's Fig. 13 sweep points: N cores at 1 GHz
// against 12 cores at scaled-down clocks.
var CoreConfigs = []CoreConfig{
	{"3c@1GHz", 3, 1_000_000_000},
	{"12c@250MHz", 12, 250_000_000},
	{"6c@1GHz", 6, 1_000_000_000},
	{"12c@500MHz", 12, 500_000_000},
	{"12c@1GHz", 12, 1_000_000_000},
}

// fig13Spec reproduces "slowdown with varying core counts at 1GHz,
// compared with values for 12 cores at varying frequencies". The
// per-core log share is held at 3 KiB, as in the paper (total log
// scales with cores).
// Paper: N cores at M MHz ≈ 2N cores at M/2; more slower cores win
// slightly because only n-1 checkers are ever active (§VI-A).
func fig13Spec(o Options) campaign.Spec {
	pts := make([]campaign.Point, 0, len(CoreConfigs))
	for _, cc := range CoreConfigs {
		pts = append(pts, point(cc.Label, func(c *paradet.Config) {
			c.NumCheckers = cc.Checkers
			c.CheckerHz = cc.FreqHz
			c.LogBytes = cc.Checkers * 3 * 1024
		}))
	}
	return o.spec("fig13", pts, true)
}

// CoreRow is one (workload, core config) sample.
type CoreRow struct {
	Workload string
	Config   string
	Slowdown float64
}

var fig13 = perRun(func(r *campaign.Run) CoreRow {
	return CoreRow{Workload: r.Workload, Config: r.Point.Label, Slowdown: r.Slowdown}
}, func(rows []CoreRow) string {
	return pivot("Fig. 13: slowdown vs checker core count and clock\n"+
		"paper: N cores @ M MHz ~ 2N cores @ M/2 MHz\n",
		rows, nil, 12, 3, func(r CoreRow) (string, string, float64) {
			return r.Workload, r.Config, r.Slowdown
		})
})

// ---- Fig. 1(d) / §VI-B / §VI-C: scheme comparison ----

// SchemeRow compares detection schemes on one workload.
type SchemeRow struct {
	Scheme        string
	Slowdown      float64
	AreaOverhead  float64
	PowerOverhead float64
	MeanDelayNS   float64
}

// fig1dWorkload is the one representative workload of Fig. 1(d).
const fig1dWorkload = "swaptions"

// fig1dSpec reproduces the overhead-comparison table with measured
// performance on one representative workload: a single campaign whose
// points differ by scheme; the default config is shared so only the
// scheme varies.
func fig1dSpec(o Options) campaign.Spec {
	cfg := paradet.DefaultConfig()
	return campaign.Spec{
		Name:      "fig1d",
		Workloads: []string{fig1dWorkload},
		Points: []campaign.Point{
			{Label: "lockstep", Config: cfg, Scheme: campaign.SchemeLockstep},
			{Label: "rmt", Config: cfg, Scheme: campaign.SchemeRMT},
			{Label: "paradet", Config: cfg, Scheme: campaign.SchemeProtected},
		},
		MaxInstrs:    o.MaxInstrs,
		WithBaseline: true,
		Parallel:     o.Parallel,
	}
}

// fig1d adds the analytic area/power model to each scheme's measured
// performance. Paper: lockstep = large area+energy; RMT = large energy
// + performance; desired (this scheme) = small everything.
var fig1d = perRun(func(r *campaign.Run) SchemeRow {
	cfg := paradet.DefaultConfig()
	ap := map[string]paradet.AreaPowerReport{
		"lockstep": paradet.AreaPowerLockstep(cfg),
		"rmt":      paradet.AreaPowerRMT(cfg, 2.0),
		"paradet":  paradet.AreaPower(cfg),
	}[r.Point.Label]
	return SchemeRow{
		Scheme:        r.Point.Label,
		Slowdown:      r.Slowdown,
		AreaOverhead:  ap.AreaOverhead,
		PowerOverhead: ap.PowerOverhead,
		MeanDelayNS:   r.MeanDelayNS(),
	}
}, func(rows []SchemeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1(d): scheme comparison on %q\n", fig1dWorkload)
	b.WriteString("paper: lockstep large area+energy; RMT large energy+perf; desired small all\n\n")
	fmt.Fprintf(&b, "  %-10s %10s %8s %8s %12s\n", "scheme", "slowdown", "area", "power", "delay ns")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %10.3f %7.0f%% %7.0f%% %12.1f\n",
			r.Scheme, r.Slowdown, r.AreaOverhead*100, r.PowerOverhead*100, r.MeanDelayNS)
	}
	return b.String()
})

// area prints the §VI-B/§VI-C analytic reports; it runs no campaign.
func area(*campaign.Outcome) (any, string, error) {
	ap := paradet.AreaPower(paradet.DefaultConfig())
	var b strings.Builder
	b.WriteString("§VI-B area / §VI-C power overheads (analytic, paper's method)\n")
	b.WriteString("paper: ~24% area (16% with L2 in base), ~16% power\n\n")
	fmt.Fprintf(&b, "  added area: %.3f mm² -> %.1f%% of main core (%.1f%% incl. L2)\n",
		ap.AddedAreaMM2, ap.AreaOverhead*100, ap.AreaOverheadWithL2*100)
	fmt.Fprintf(&b, "  added power: %.0f mW -> %.1f%% of main core\n",
		ap.AddedPowerMW, ap.PowerOverhead*100)
	return ap, b.String(), nil
}

// Sec6DRow compares the Table I core against the aggressive §VI-D core.
type Sec6DRow struct {
	Workload     string
	Core         string
	BaseIPS      float64 // unprotected giga-instructions/s
	Slowdown     float64
	CheckerCores int
}

// sec6dSpec reproduces §VI-D's "bigger cores" argument: a 6-wide 4 GHz
// main core gains sublinear single-thread performance, so a linearly
// scaled checker pool (18 cores here) still contains the slowdown while
// its relative area/power overhead versus the (much larger) big core
// falls. The points are the Table I core against the aggressive big
// core with the scaled checker pool.
func sec6dSpec(o Options) campaign.Spec {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"bitcount", "stream", "bodytrack"}
	}
	return o.spec("sec6d", []campaign.Point{
		point("tableI-3w-3.2GHz", nil),
		point("big-6w-4GHz", func(c *paradet.Config) {
			c.BigCore = true
			c.NumCheckers = 18
			c.LogBytes = 18 * 3 * 1024
			c.CheckerHz = 1_250_000_000
		}),
	}, true)
}

// sec6d prints the big-core comparison.
var sec6d = perRun(func(r *campaign.Run) Sec6DRow {
	return Sec6DRow{
		Workload:     r.Workload,
		Core:         r.Point.Label,
		BaseIPS:      float64(r.Baseline.Instructions) / r.Baseline.TimeNS,
		Slowdown:     r.Slowdown,
		CheckerCores: r.Config.NumCheckers,
	}
}, func(rows []Sec6DRow) string {
	var b strings.Builder
	b.WriteString("§VI-D: bigger main cores (sublinear speedup, linear checker scaling)\n")
	b.WriteString("paper: relative overheads diminish on more aggressive cores\n\n")
	fmt.Fprintf(&b, "  %-14s %-18s %10s %10s %9s\n",
		"workload", "core", "GIPS", "slowdown", "checkers")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %-18s %10.2f %10.3f %9d\n",
			r.Workload, r.Core, r.BaseIPS, r.Slowdown, r.CheckerCores)
	}
	return b.String()
})

// ---- Fault-injection coverage campaign ----

// FaultSchemaVersion versions the fault-campaign JSON format. Bump it
// on any incompatible change to FaultCampaignReport or FaultCovRow.
const FaultSchemaVersion = 1

// FaultCovRow is one classified fault-injection cell.
type FaultCovRow struct {
	Workload  string  `json:"workload"`
	Target    string  `json:"target"`
	Seq       uint64  `json:"seq"`
	Bit       uint8   `json:"bit"`
	Sticky    bool    `json:"sticky"`
	Outcome   string  `json:"outcome"`
	ErrorKind string  `json:"error_kind,omitempty"`
	DetectNS  float64 `json:"detect_ns,omitempty"`
}

// FaultCampaignReport is the schema-stable JSON format for
// fault-injection campaigns (the ROADMAP's counterpart to the figure
// rows of -json). The leading Schema field lets consumers reject
// incompatible revisions.
type FaultCampaignReport struct {
	Schema   int    `json:"schema"`
	Campaign string `json:"campaign"`
	// Shard marks a partial report: the grid fields below describe the
	// full campaign, but Records and Coverage cover only the "i/n"
	// slice named here. Empty for full (or assembled) campaigns.
	Shard     string   `json:"shard,omitempty"`
	Workloads []string `json:"workloads"`
	Targets   []string `json:"targets"`
	Seqs      []uint64 `json:"seqs"`
	// Bits is []int, not []uint8: encoding/json renders byte slices as
	// base64, which would not be schema-stable JSON numbers.
	Bits    []int          `json:"bits"`
	Sticky  []bool         `json:"sticky"`
	Records []FaultCovRow  `json:"records"`
	Counts  map[string]int `json:"counts"`
	// Coverage is detected / (detected + silent): the fraction of
	// state-corrupting faults the scheme caught.
	Coverage float64 `json:"coverage"`
}

// FaultReportFromOutcome lifts a fault campaign's outcome into the
// schema-stable report. It fails on the first errored cell.
func FaultReportFromOutcome(out *campaign.Outcome) (*FaultCampaignReport, error) {
	grid := out.Spec.Faults
	if grid == nil {
		return nil, fmt.Errorf("experiments: campaign %q has no fault dimension", out.Spec.Name)
	}
	sticky := grid.Sticky
	if len(sticky) == 0 {
		sticky = []bool{false}
	}
	rep := &FaultCampaignReport{
		Schema:    FaultSchemaVersion,
		Campaign:  out.Spec.Name,
		Workloads: out.Spec.Workloads,
		Seqs:      grid.Seqs,
		Sticky:    sticky,
		Counts:    map[string]int{},
	}
	if out.Shard != nil {
		rep.Shard = out.Shard.String()
	}
	for _, t := range grid.Targets {
		rep.Targets = append(rep.Targets, string(t))
	}
	for _, b := range grid.Bits {
		rep.Bits = append(rep.Bits, int(b))
	}
	for i := range out.Results {
		r := &out.Results[i]
		if r.Skipped {
			continue // another shard owns this cell
		}
		if r.Err != nil {
			return nil, fmt.Errorf("%s %s %s {%v}: %w", out.Spec.Name, r.Workload, r.Point.Label, r.Fault, r.Err)
		}
		rec := r.FaultRec
		rep.Records = append(rep.Records, FaultCovRow{
			Workload:  r.Workload,
			Target:    string(rec.Fault.Target),
			Seq:       rec.Fault.Seq,
			Bit:       rec.Fault.Bit,
			Sticky:    rec.Fault.Sticky,
			Outcome:   string(rec.Outcome),
			ErrorKind: rec.ErrorKind,
			DetectNS:  rec.DetectNS,
		})
		rep.Counts[string(rec.Outcome)]++
	}
	det := rep.Counts[string(paradet.OutcomeDetected)]
	sil := rep.Counts[string(paradet.OutcomeSilent)]
	rep.Coverage = 1
	if det+sil > 0 {
		rep.Coverage = float64(det) / float64(det+sil)
	}
	return rep, nil
}

// DefaultFaultGrid is the faultcov experiment's sweep: every in- and
// out-of-sphere target at two strike points and two bit positions.
func DefaultFaultGrid() campaign.FaultGrid {
	return campaign.FaultGrid{
		Targets: paradet.FaultTargets(),
		Seqs:    []uint64{40, 400},
		Bits:    []uint8{5, 40},
	}
}

// faultcovSpec runs a deterministic fault-injection grid as a
// first-class campaign: one Table I point per workload crossed with
// every fault in DefaultFaultGrid. Paper §VI-E: every in-sphere fault
// that corrupts architectural state is detected; pre-LFU load faults
// are in the ECC domain and may escape.
func faultcovSpec(o Options) campaign.Spec {
	if len(o.Workloads) == 0 {
		// One representative workload: the grid multiplies cells.
		o.Workloads = []string{"bitcount"}
	}
	spec := o.spec("faultcov", tableI(), false)
	grid := DefaultFaultGrid()
	spec.Faults = &grid
	return spec
}

func faultcov(out *campaign.Outcome) (any, string, error) {
	rep, err := FaultReportFromOutcome(out)
	if err != nil {
		return nil, "", err
	}
	return rep, RenderFaultCov(rep), nil
}

// RenderFaultCov prints the coverage summary plus per-target counts.
func RenderFaultCov(rep *FaultCampaignReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-injection coverage (schema v%d): %d faults on %s\n",
		rep.Schema, len(rep.Records), strings.Join(rep.Workloads, ","))
	if rep.Shard != "" {
		fmt.Fprintf(&b, "PARTIAL: shard %s of the grid; merge the shard stores and re-run to assemble\n", rep.Shard)
	}
	b.WriteString("paper §VI-E: all in-sphere state-corrupting faults detected; pre-LFU loads are ECC's problem\n\n")

	type tally struct{ counts map[string]int }
	byTarget := map[string]*tally{}
	for _, r := range rep.Records {
		tl := byTarget[r.Target]
		if tl == nil {
			tl = &tally{counts: map[string]int{}}
			byTarget[r.Target] = tl
		}
		tl.counts[r.Outcome]++
	}
	outcomes := []string{
		string(paradet.OutcomeDetected), string(paradet.OutcomeOverDetected),
		string(paradet.OutcomeMasked), string(paradet.OutcomeSilent),
	}
	fmt.Fprintf(&b, "  %-14s", "target")
	for _, oc := range outcomes {
		fmt.Fprintf(&b, "%19s", oc)
	}
	b.WriteString("\n")
	for _, t := range rep.Targets {
		tl := byTarget[t]
		if tl == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-14s", t)
		for _, oc := range outcomes {
			fmt.Fprintf(&b, "%19d", tl.counts[oc])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\n  coverage (detected / state-corrupting): %.3f\n", rep.Coverage)
	return b.String()
}

// ---- The table ----

// experiment is one entry of the table.
type experiment struct {
	name string
	// spec builds the campaign the experiment executes under o; nil for
	// an analytic experiment that runs none.
	spec func(o Options) campaign.Spec
	// figure turns the executed campaign's outcome (nil when spec is
	// nil) into the figure's rows and text.
	figure func(out *campaign.Outcome) (rows any, text string, err error)
}

// table lists every experiment once, in the order Names reports them.
var table = []experiment{
	{"fig1d", fig1dSpec, fig1d},
	{"fig7", func(o Options) campaign.Spec { return o.spec("fig7", tableI(), true) }, fig7},
	{"fig8", func(o Options) campaign.Spec { return o.spec("fig8", tableI(), false) }, fig8},
	{"fig9", freqSpec, fig9},
	{"fig10", fig10Spec, fig10},
	{"fig11", freqSpec, fig11},
	{"fig12", fig12Spec, fig12},
	{"fig13", fig13Spec, fig13},
	{"area", nil, area},
	{"sec6d", sec6dSpec, sec6d},
	{"faultcov", faultcovSpec, faultcov},
}

// Names lists the experiment identifiers understood by Generate.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return names
}

func lookup(name string) (*experiment, error) {
	for i := range table {
		if table[i].name == name {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// SpecNamed returns the campaign spec the named experiment executes
// under o — the one Generate runs, including sec6d's and faultcov's
// default workload subsets — so a consumer that resolves cells from a
// spec (the serving layer) can never disagree with an executed figure
// about grid order or fingerprints. "area" is analytic (it runs no
// campaign) and unknown names are errors; both are client mistakes,
// not reasons to simulate.
func SpecNamed(name string, o Options) (campaign.Spec, error) {
	e, err := lookup(name)
	if err != nil {
		return campaign.Spec{}, err
	}
	if e.spec == nil {
		return campaign.Spec{}, fmt.Errorf("experiments: %q is analytic and runs no campaign", name)
	}
	return e.spec(o), nil
}

// Figure bundles one experiment's structured rows with its rendered
// text table, so callers can emit either (cmd/experiments -json).
type Figure struct {
	Name string `json:"name"`
	Rows any    `json:"rows"`
	Text string `json:"-"`
}

// Generate executes one named experiment and returns both its rows and
// rendering. The campaign runs with the options' context, store,
// progress callback, shard and telemetry, and its stats accumulate
// into o.Stats.
func Generate(name string, o Options) (*Figure, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	var out *campaign.Outcome
	if e.spec != nil {
		ctx := o.Context
		if ctx == nil {
			ctx = context.Background()
		}
		out, err = campaign.ExecuteContext(ctx, e.spec(o), o.Sim, campaign.Options{
			Store:     o.Store,
			Progress:  o.Progress,
			Shard:     o.Shard,
			Telemetry: o.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		if o.Stats != nil {
			o.Stats.Add(out.Stats)
		}
	}
	rows, text, err := e.figure(out)
	if err != nil {
		return nil, err
	}
	return &Figure{Name: name, Rows: rows, Text: text}, nil
}
