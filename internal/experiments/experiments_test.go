package experiments

import (
	"strings"
	"testing"

	"paradet"
	"paradet/internal/campaign"
	"paradet/internal/resultstore"
)

// fastOpts keeps experiment smoke tests quick: two contrasting workloads,
// tiny samples.
func fastOpts() Options {
	return Options{MaxInstrs: 6000, Workloads: []string{"randacc", "bitcount"}}
}

// generate runs one experiment and returns its rows as R.
func generate[R any](t *testing.T, name string, o Options) ([]R, *Figure) {
	t.Helper()
	fig, err := Generate(name, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rows, ok := fig.Rows.([]R)
	if !ok {
		t.Fatalf("%s rows are %T", name, fig.Rows)
	}
	return rows, fig
}

func TestFig7ProducesOneRowPerWorkload(t *testing.T) {
	rows, fig := generate[Fig7Row](t, "fig7", fastOpts())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Slowdown < 0.99 || r.Slowdown > 2 {
			t.Errorf("%s slowdown %.3f implausible", r.Workload, r.Slowdown)
		}
	}
	if !strings.Contains(fig.Text, "MEAN") {
		t.Error("rendering must include the mean")
	}
}

func TestFig8CollectsDelays(t *testing.T) {
	rows, _ := generate[Fig8Row](t, "fig8", Options{MaxInstrs: 6000, Workloads: []string{"stream"}})
	if rows[0].MeanNS <= 0 || len(rows[0].Density) == 0 {
		t.Fatalf("delay stats empty: %+v", rows[0])
	}
}

// TestFreqSweepCoversAllPoints asserts fig9 and fig11 render the same
// sweep: one row per swept clock, identical rows.
func TestFreqSweepCoversAllPoints(t *testing.T) {
	o := Options{MaxInstrs: 4000, Workloads: []string{"stream"}}
	rows9, fig9 := generate[FreqRow](t, "fig9", o)
	if len(rows9) != len(CheckerFreqsHz) {
		t.Fatalf("rows = %d, want %d", len(rows9), len(CheckerFreqsHz))
	}
	rows11, fig11 := generate[FreqRow](t, "fig11", o)
	for i := range rows9 {
		if rows9[i] != rows11[i] {
			t.Errorf("row %d: fig9 %+v, fig11 %+v", i, rows9[i], rows11[i])
		}
	}
	if !strings.Contains(fig9.Text, "2GHz") || !strings.Contains(fig11.Text, "Fig. 11(b)") {
		t.Errorf("renderings incomplete:\n%s\n%s", fig9.Text, fig11.Text)
	}
}

func TestLogSweepsRun(t *testing.T) {
	o := Options{MaxInstrs: 4000, Workloads: []string{"stream"}}
	if rows10, _ := generate[LogRow](t, "fig10", o); len(rows10) != 4 {
		t.Fatalf("fig10 rows = %d, want 4 configs", len(rows10))
	}
	if rows12, _ := generate[LogRow](t, "fig12", o); len(rows12) != len(LogConfigs) {
		t.Fatalf("fig12 rows = %d, want %d", len(rows12), len(LogConfigs))
	}
}

func TestFig13Runs(t *testing.T) {
	rows, _ := generate[CoreRow](t, "fig13", Options{MaxInstrs: 4000, Workloads: []string{"randacc"}})
	if len(rows) != len(CoreConfigs) {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig1dOrdersSchemes(t *testing.T) {
	rows, _ := generate[SchemeRow](t, "fig1d", Options{MaxInstrs: 10000})
	byScheme := map[string]SchemeRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	if byScheme["rmt"].Slowdown <= byScheme["paradet"].Slowdown {
		t.Errorf("RMT slowdown %.3f must exceed paradet %.3f",
			byScheme["rmt"].Slowdown, byScheme["paradet"].Slowdown)
	}
	if byScheme["lockstep"].AreaOverhead <= byScheme["paradet"].AreaOverhead {
		t.Error("lockstep must cost more area than paradet")
	}
}

// TestParallelOutputMatchesSerial asserts the rendered figures are
// byte-identical whatever the worker-pool size (the cmd/experiments
// -parallel contract).
func TestParallelOutputMatchesSerial(t *testing.T) {
	for _, name := range []string{"fig7", "fig9", "fig13"} {
		o := fastOpts()
		o.Parallel = 1
		serial, err := Generate(name, o)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		o.Parallel = 4
		parallel, err := Generate(name, o)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if serial.Text != parallel.Text {
			t.Errorf("%s: parallel output differs from serial", name)
		}
	}
}

// TestGenerateCarriesRows asserts the JSON path exposes structured rows
// alongside the rendering.
func TestGenerateCarriesRows(t *testing.T) {
	rows, fig := generate[Fig7Row](t, "fig7", fastOpts())
	if len(rows) != 2 {
		t.Fatalf("rows = %#v", fig.Rows)
	}
	if fig.Text == "" || fig.Name != "fig7" {
		t.Errorf("figure metadata incomplete: %+v", fig)
	}
}

// TestFaultCovClassifiesGrid asserts the fault-coverage experiment
// produces a versioned, fully classified report, and that re-running
// it against a warm store simulates nothing while rendering the exact
// same text (the cmd/experiments -store contract).
func TestFaultCovClassifiesGrid(t *testing.T) {
	o := Options{MaxInstrs: 4000, Workloads: []string{"bitcount"}}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o.Store = store
	o.Stats = &campaign.Stats{}

	first, err := Generate("faultcov", o)
	if err != nil {
		t.Fatal(err)
	}
	rep := first.Rows.(*FaultCampaignReport)
	if rep.Schema != FaultSchemaVersion {
		t.Errorf("schema = %d, want %d", rep.Schema, FaultSchemaVersion)
	}
	grid := DefaultFaultGrid()
	if want := len(grid.Targets) * len(grid.Seqs) * len(grid.Bits); len(rep.Records) != want {
		t.Fatalf("records = %d, want %d", len(rep.Records), want)
	}
	for _, r := range rep.Records {
		// Pre-LFU load faults are in the ECC domain and may escape.
		if r.Outcome == "" || (r.Outcome == string(paradet.OutcomeSilent) && r.Target != string(paradet.FaultLoadPreLFU)) {
			t.Errorf("fault %s/%d/%d outcome %q", r.Target, r.Seq, r.Bit, r.Outcome)
		}
	}
	if !strings.Contains(first.Text, "coverage") {
		t.Error("rendering must include coverage")
	}
	if o.Stats.CellSims == 0 {
		t.Error("cold run must simulate")
	}

	o.Stats = &campaign.Stats{}
	second, err := Generate("faultcov", o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.CellSims != 0 || o.Stats.BaselineSims != 0 {
		t.Errorf("warm run simulated: %+v", *o.Stats)
	}
	if second.Text != first.Text {
		t.Errorf("warm rendering differs:\n%s\nvs\n%s", second.Text, first.Text)
	}
}

// TestGenerateRejectsUnknown asserts unknown names fail in Generate and
// SpecNamed alike, and that only the analytic experiment has no spec.
func TestGenerateRejectsUnknown(t *testing.T) {
	if _, err := Generate("fig99", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := SpecNamed("fig99", Options{}); err == nil {
		t.Fatal("unknown experiment has a spec")
	}
	for _, n := range Names() {
		if n == "" {
			t.Fatal("empty experiment name")
		}
		_, err := SpecNamed(n, Options{})
		if (err != nil) != (n == "area") {
			t.Errorf("SpecNamed(%q): %v", n, err)
		}
	}
}
