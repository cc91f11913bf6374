package resultstore

import (
	"encoding/json"
	"testing"
)

// TestStatsReportGolden pins the pdstore stats -json wire format. The
// key names are a public schema scripts and CI parse; they only ever
// grow (with omitempty on new fields), never change — a breaking
// reshape must bump StatsSchemaVersion instead.
func TestStatsReportGolden(t *testing.T) {
	rep := StatsReport{
		Schema: StatsSchemaVersion,
		Dir:    "/tmp/store",
		Footprint: Footprint{
			Cells: 6, Bytes: 4096, LooseCells: 2, Corrupt: 1,
			Segments: 1, SegmentCells: 4, SegmentBytes: 2048,
			BrokenSegments: 0,
			Schemes: []SchemeFootprint{
				{Scheme: "protected", Cells: 3, Bytes: 2048, Faults: 0},
				{Scheme: "unprotected", Cells: 3, Bytes: 2048, Faults: 1},
			},
		},
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"stats_schema":2,"dir":"/tmp/store","cells":6,"bytes":4096,` +
		`"loose_cells":2,"corrupt":1,"segments":1,"segment_cells":4,"segment_bytes":2048,` +
		`"broken_segments":0,"schemes":[` +
		`{"scheme":"protected","cells":3,"bytes":2048,"faults":0},` +
		`{"scheme":"unprotected","cells":3,"bytes":2048,"faults":1}]}`
	if string(got) != want {
		t.Errorf("stats -json schema drifted:\n got %s\nwant %s", got, want)
	}
}

// TestStatsReportRoundTrip feeds a real store through Footprint and
// the JSON encoding, proving the document reflects the disk and the
// decoded form round-trips — what CI's reconcile step relies on.
func TestStatsReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"a", "b", "c"} {
		k := Key{Workload: w, Scheme: "protected"}
		if err := s.Put(k, &Cell{}); err != nil {
			t.Fatal(err)
		}
	}
	fp, err := s.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(StatsReport{Schema: StatsSchemaVersion, Dir: dir, Footprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	var back StatsReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != StatsSchemaVersion || back.Dir != dir || back.Cells != 3 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if len(back.Schemes) != 1 || back.Schemes[0].Scheme != "protected" || back.Schemes[0].Cells != 3 {
		t.Errorf("scheme rows drifted: %+v", back.Schemes)
	}
}
