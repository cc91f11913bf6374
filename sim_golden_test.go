package paradet_test

// Two more pins beside the pinned-stats golden, both regenerated with
// the same flag:
//
//	go test -run 'Golden' -update-golden .
//
// testdata/telemetry_samples.golden holds every interval telemetry
// sample of three kernels with very different stall profiles, so the
// cumulative stall counters (log-full, rename, icache, checkpoint) are
// pinned cycle for cycle, at a fast and at a slow checker clock.
// testdata/fault_records.golden holds the classification of a seeded
// fault campaign on every kernel plus a handful of checker-core faults:
// it pins what the detection hardware sees at commit, where an error is
// detected and when.
// testdata/config_matrix.golden holds one line per kernel under six
// checker-bound configurations (fast and slow checkers, a tiny log, few
// checkers, interrupts, the big core, null checkers): cycles, seals,
// log-full stalls, the whole delay summary and every checker's
// utilisation, with floats printed so that they round-trip exactly.
// testdata/figures.golden holds the text of every experiment at 5,000
// instructions per cell, then the CSV of all of them: every scalar row
// field, so a figure that maps the wrong field into a row drifts too.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"paradet"
	"paradet/internal/experiments"
	"paradet/internal/obs/telemetry"
)

// checkGolden compares got with testdata/name, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s drifted at line %d (of %d, want %d):\n got: %s\nwant: %s\n"+
				"A pure performance change must never trip this; an intended model "+
				"change regenerates it with -update-golden and explains the drift.",
				golden, i+1, len(gl), len(wl), g, w)
		}
	}
}

func TestTelemetrySamplesGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"randacc", "freqmine", "fluidanimate"} {
		p, _, err := paradet.LoadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, hz := range []uint64{1_000_000_000, 125_000_000} {
			cfg := paradet.DefaultConfig()
			cfg.MaxInstrs = 40_000
			cfg.CheckerHz = hz
			probe := telemetry.New(500, 0)
			if _, err := paradet.NewSystemBuilder(cfg, p).WithTelemetry(probe).Run(); err != nil {
				t.Fatalf("%s at %d MHz: %v", name, hz/1_000_000, err)
			}
			for _, s := range probe.Samples() {
				line, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s chk=%dMHz %s\n", name, hz/1_000_000, line)
			}
		}
	}
	checkGolden(t, "telemetry_samples.golden", b.String())
}

func TestFaultRecordsGolden(t *testing.T) {
	var b strings.Builder
	write := func(name string, rec paradet.FaultRecord) {
		f := rec.Fault
		kind := rec.ErrorKind
		if kind == "" {
			kind = "-"
		}
		fmt.Fprintf(&b, "%s %s seq=%d bit=%d sticky=%t chk=%d %s kind=%s ns=%v\n",
			name, f.Target, f.Seq, f.Bit, f.Sticky, f.CheckerID, rec.Outcome, kind, rec.DetectNS)
	}
	for _, w := range paradet.Workloads() {
		p, _, err := paradet.LoadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := paradet.DefaultConfig()
		cfg.MaxInstrs = 5_000
		camp, err := paradet.RunCampaign(cfg, p, 120, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, rec := range camp.Records {
			write(w.Name, rec)
		}

		// Checker-core faults (over-detection, §IV-I) are not drawn by
		// RunCampaign; the first two checkers see a segment on every
		// kernel.
		golden, err := paradet.Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 12; i++ {
			f := paradet.Fault{
				Target:    paradet.FaultCheckerReg,
				Seq:       1 + uint64(r.Intn(1000)),
				Bit:       uint8(r.Intn(64)),
				CheckerID: r.Intn(2),
			}
			rec, err := paradet.ClassifyFault(cfg, p, f, golden)
			if err != nil {
				t.Fatalf("%s %v: %v", w.Name, f, err)
			}
			write(w.Name, rec)
		}
	}
	checkGolden(t, "fault_records.golden", b.String())
}

func TestConfigMatrixGolden(t *testing.T) {
	configs := []struct {
		name string
		set  func(*paradet.Config)
	}{
		{"chk2GHz", func(c *paradet.Config) { c.CheckerHz = 2_000_000_000 }},
		{"chk500MHz-log3686", func(c *paradet.Config) { c.CheckerHz = 500_000_000; c.LogBytes = 3686 }},
		{"chk3", func(c *paradet.Config) { c.NumCheckers = 3 }},
		{"irq2000ns", func(c *paradet.Config) { c.InterruptIntervalNS = 2000 }},
		{"bigcore", func(c *paradet.Config) { c.BigCore = true }},
		{"nullchk", func(c *paradet.Config) { c.DisableCheckers = true }},
	}
	exact := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, c := range configs {
		for _, w := range paradet.Workloads() {
			p, _, err := paradet.LoadWorkload(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := paradet.DefaultConfig()
			cfg.MaxInstrs = 20_000
			c.set(&cfg)
			res, err := paradet.Run(cfg, p)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, w.Name, err)
			}
			d := res.Delay
			fmt.Fprintf(&b, "%s %s cycles=%d seals=%d/%d/%d/%d lfstall=%d lfupeak=%d "+
				"delay=%d/%s/%s/%s/%s/%s/%s util=",
				c.name, w.Name, res.Cycles,
				res.SealsByReason["capacity"], res.SealsByReason["timeout"],
				res.SealsByReason["interrupt"], res.SealsByReason["finish"],
				res.LogFullStallCycles, res.LFUPeak,
				d.Samples, exact(d.MeanNS), exact(d.MaxNS), exact(d.P50NS),
				exact(d.P99NS), exact(d.P999NS), exact(d.FracBelow5us))
			for i, u := range res.CheckerUtilization {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(exact(u))
			}
			if fe := res.FirstError; fe != nil {
				fmt.Fprintf(&b, " err=%s/%d/%d/%s\n", fe.Kind, fe.SegmentSeq, fe.InstSeq, exact(fe.DetectedNS))
			} else {
				b.WriteString(" err=-\n")
			}
		}
	}
	checkGolden(t, "config_matrix.golden", b.String())
}

func TestFiguresGolden(t *testing.T) {
	var b strings.Builder
	var figs []*experiments.Figure
	for _, name := range experiments.Names() {
		fig, err := experiments.Generate(name, experiments.Options{MaxInstrs: 5_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s\n", fig.Text)
		figs = append(figs, fig)
	}
	if err := experiments.WriteCSV(&b, figs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figures.golden", b.String())
}
