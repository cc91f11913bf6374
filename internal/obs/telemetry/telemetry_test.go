package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func mkSample(k uint64, interval uint64) Sample {
	return Sample{
		Instructions:       k * interval,
		Cycles:             k * interval * 2,
		TimeNS:             float64(k*interval) * 0.625,
		ROB:                int(k % 40),
		LogFullStallCycles: k * 10,
	}
}

// TestProbeRing covers ring accounting: fill, overflow (oldest
// dropped, totals preserved), and the Extra hook running exactly once
// per recorded sample.
func TestProbeRing(t *testing.T) {
	extras := 0
	p := New(100, 4)
	p.Extra = func(s *Sample) { extras++; s.CheckersBusy = 3 }
	for k := uint64(1); k <= 6; k++ {
		p.Record(mkSample(k, 100))
	}
	got := p.Samples()
	if dropped := p.Total() - uint64(len(got)); p.Total() != 6 || dropped != 2 || extras != 6 {
		t.Fatalf("total=%d dropped=%d extras=%d, want 6/2/6", p.Total(), dropped, extras)
	}
	if len(got) != 4 {
		t.Fatalf("kept %d samples, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(i+3) * 100; s.Instructions != want {
			t.Errorf("sample %d at %d instrs, want %d (oldest-first after overflow)", i, s.Instructions, want)
		}
		if s.CheckersBusy != 3 {
			t.Errorf("sample %d: Extra hook fields lost", i)
		}
	}
}

// TestProbeDefaults: zero interval/capacity select the defaults.
func TestProbeDefaults(t *testing.T) {
	p := New(0, 0)
	if p.Interval() != DefaultInterval || len(p.ring) != DefaultCap {
		t.Fatalf("defaults not applied: interval=%d cap=%d", p.Interval(), len(p.ring))
	}
}

// TestSidecarRoundTrip writes a series through the JSONL sidecar
// format and reads it back, checking the header finalization against
// the probe's last sample and full sample fidelity.
func TestSidecarRoundTrip(t *testing.T) {
	p := New(500, 8)
	for k := uint64(1); k <= 5; k++ {
		p.Record(mkSample(k, 500))
	}
	s := &Series{Samples: p.Samples()}
	s.Header.Fingerprint = "cafe0123"
	s.Header.Workload = "stream"
	s.Header.Point = "36KiB/1000"
	s.Header.Scheme = "protected"
	s.Header.Finalize(p)

	if s.Header.Instructions != 2500 || s.Header.TotalSamples != 5 || s.Header.Kept != 5 {
		t.Fatalf("finalized header wrong: %+v", s.Header)
	}

	dir := t.TempDir()
	path, err := s.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "cafe0123.jsonl") {
		t.Fatalf("sidecar path %q not fingerprint-named", path)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header != s.Header {
		t.Fatalf("header changed in round trip:\n%+v\n%+v", back.Header, s.Header)
	}
	if len(back.Samples) != 5 || back.Samples[4] != s.Samples[4] {
		t.Fatalf("samples changed in round trip")
	}
	if err := Reconcile(back); err != nil {
		t.Fatalf("round-tripped series fails reconciliation: %v", err)
	}

	all, err := LoadDir(dir)
	if err != nil || len(all) != 1 {
		t.Fatalf("LoadDir: %v (%d series)", err, len(all))
	}

	// A traversal-shaped fingerprint must be rejected.
	bad := *s
	bad.Header.Fingerprint = "../escape"
	if _, err := bad.WriteFile(dir); err == nil {
		t.Fatal("path-traversal fingerprint accepted")
	}
}

// TestReconcileCatches: mismatched sample totals and non-contiguous
// samples must fail reconciliation.
func TestReconcileCatches(t *testing.T) {
	p := New(500, 8)
	for k := uint64(1); k <= 4; k++ {
		p.Record(mkSample(k, 500))
	}
	good := &Series{Samples: p.Samples()}
	good.Header.Finalize(p)

	lying := *good
	lying.Header.Instructions += 500 // claims instrs the probe never saw
	if err := Reconcile(&lying); err == nil {
		t.Error("inflated instruction count passed reconciliation")
	}

	gap := &Series{Samples: append([]Sample{}, good.Samples...)}
	gap.Header = good.Header
	gap.Samples[2].Instructions += 500
	if err := Reconcile(gap); err == nil {
		t.Error("non-contiguous samples passed reconciliation")
	}
}

// TestAttributeAndPhases checks whole-run attribution fractions and
// phase aggregation rates on a hand-built series.
func TestAttributeAndPhases(t *testing.T) {
	s := &Series{
		Header: Header{
			Version: SidecarVersion, Fingerprint: "fp", Interval: 1000,
			TotalSamples: 4, Kept: 4,
			Instructions: 4000, Cycles: 8000, TimeNS: 2500,
			Branches: 400, Mispredicts: 8,
			LogFullStallCycles: 2000, CheckpointStallNS: 250,
			ICacheStallCycles: 800, RenameStallCycles: 400,
		},
	}
	for k := uint64(1); k <= 4; k++ {
		s.Samples = append(s.Samples, Sample{
			Instructions: k * 1000, Cycles: k * 2000, TimeNS: float64(k) * 625,
			LogFullStallCycles: k * 500, ROB: 10, SegCapacity: 100, SegEntries: int(k * 10),
		})
	}
	// Header totals must match the last sample for Reconcile; here we
	// only exercise Attribute/Phases, which read header and samples
	// independently.
	a := Attribute(s)
	if a.IPC != 0.5 || a.LogFullFrac != 0.25 || a.ICacheFrac != 0.1 || a.RenameFrac != 0.05 {
		t.Errorf("attribution wrong: %+v", a)
	}
	if a.CheckpointFrac != 0.1 || a.MispredictPerKI != 2 {
		t.Errorf("time/branch attribution wrong: %+v", a)
	}

	ph := Phases(s, 2)
	if len(ph) != 2 {
		t.Fatalf("got %d phases, want 2", len(ph))
	}
	for i, p := range ph {
		if p.IPC != 0.5 || p.LogFullFrac != 0.25 {
			t.Errorf("phase %d rates wrong: %+v", i, p)
		}
	}
	if ph[1].From != 2000 || ph[1].To != 4000 {
		t.Errorf("phase 1 range = [%d,%d], want (2000,4000]", ph[1].From, ph[1].To)
	}
	if d := ph[0].MeanSeg - 0.15; d < -1e-9 || d > 1e-9 { // samples at 10% and 20% of capacity
		t.Errorf("phase 0 mean segment occupancy = %v, want 0.15", ph[0].MeanSeg)
	}

	// Ranking: worst log-full fraction first.
	worse := a
	worse.LogFullFrac, worse.Fingerprint = 0.9, "zz"
	list := []Attribution{a, worse}
	RankByLogFull(list)
	if list[0].Fingerprint != "zz" {
		t.Error("straggler ranking not worst-first")
	}
}

// TestReadRejects: empty files and version drift fail loudly.
func TestReadRejects(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty sidecar accepted")
	}
	if _, err := Read(strings.NewReader(`{"version":99,"interval":1,"kept":0}` + "\n")); err == nil {
		t.Error("future sidecar version accepted")
	}
	if _, err := Read(strings.NewReader(`{"version":1,"interval":1,"kept":3}` + "\n")); err == nil {
		t.Error("kept-count mismatch accepted")
	}
}

// monotoneSeries builds a 5-sample series in which every cumulative
// counter strictly increases, so any single regression is isolatable.
func monotoneSeries() *Series {
	p := New(500, 8)
	p.Extra = func(s *Sample) {
		k := s.Instructions / 500
		s.Branches = k * 50
		s.Mispredicts = k * 5
		s.CheckpointStallNS = float64(k * 40)
		s.ICacheStallCycles = k * 30
		s.RenameStallCycles = k * 20
		s.Checkpoints = k * 2
		s.EntriesLogged = k * 400
		s.CheckerInstrs = k * 450
	}
	for k := uint64(1); k <= 5; k++ {
		p.Record(mkSample(k, 500)) // also sets Cycles, TimeNS, LogFullStallCycles
	}
	s := &Series{Samples: p.Samples()}
	s.Header.Fingerprint = "feed0456"
	s.Header.Finalize(p)
	return s
}

// TestReconcileRejectsRegressingCounters: EVERY cumulative counter is
// monotonicity-checked, not just instructions. Historically only the
// instruction stride was verified, so a sidecar with, say, a
// regressing checkpoint-stall counter passed reconciliation and then
// underflowed the delta-based analyzers (Phases, Attribute) into
// garbage fractions.
func TestReconcileRejectsRegressingCounters(t *testing.T) {
	if err := Reconcile(monotoneSeries()); err != nil {
		t.Fatalf("pristine series fails reconciliation: %v", err)
	}

	cases := []struct {
		name   string // must appear in the error
		mutate func(ss []Sample)
	}{
		{"cycles", func(ss []Sample) { ss[2].Cycles = ss[1].Cycles - 1 }},
		{"t_ns", func(ss []Sample) { ss[2].TimeNS = ss[1].TimeNS / 2 }},
		{"branches", func(ss []Sample) { ss[2].Branches = ss[1].Branches - 1 }},
		{"mispredicts", func(ss []Sample) { ss[2].Mispredicts = ss[1].Mispredicts - 1 }},
		{"stall_logfull", func(ss []Sample) { ss[2].LogFullStallCycles = ss[1].LogFullStallCycles - 1 }},
		{"stall_ckpt_ns", func(ss []Sample) { ss[2].CheckpointStallNS = ss[1].CheckpointStallNS - 1 }},
		{"stall_icache", func(ss []Sample) { ss[2].ICacheStallCycles = ss[1].ICacheStallCycles - 1 }},
		{"stall_rename", func(ss []Sample) { ss[2].RenameStallCycles = ss[1].RenameStallCycles - 1 }},
		{"ckpts", func(ss []Sample) { ss[2].Checkpoints = ss[1].Checkpoints - 1 }},
		{"entries", func(ss []Sample) { ss[2].EntriesLogged = ss[1].EntriesLogged - 1 }},
		{"chk_instrs", func(ss []Sample) { ss[2].CheckerInstrs = ss[1].CheckerInstrs - 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := monotoneSeries()
			tc.mutate(s.Samples)
			err := Reconcile(s)
			if err == nil {
				t.Fatalf("regressing %s passed reconciliation", tc.name)
			}
			if !strings.Contains(err.Error(), "regressed") || !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("error %q does not name the regressing counter %s", err, tc.name)
			}
		})
	}

	// The on-disk path must reject the same malformation: a sidecar
	// written with a regressing counter fails reconciliation after the
	// LoadDir round trip pdreport uses.
	bad := monotoneSeries()
	bad.Samples[2].CheckpointStallNS = 0
	dir := t.TempDir()
	if _, err := bad.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	series, err := LoadDir(dir)
	if err != nil || len(series) != 1 {
		t.Fatalf("LoadDir: %v (%d series)", err, len(series))
	}
	if err := Reconcile(series[0]); err == nil {
		t.Fatal("regressing sidecar passed reconciliation after disk round trip")
	}
}
