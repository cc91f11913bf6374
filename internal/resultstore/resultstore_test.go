package resultstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"paradet"
)

func testKey() Key {
	return Key{
		Workload: "stream",
		Scheme:   "protected",
		Config:   paradet.DefaultConfig(),
	}
}

// TestFingerprintGolden pins the fingerprint of a fixed key. If this
// test fails, the canonical serialization changed: either revert the
// change or bump SchemaVersion (and update this constant), because old
// store cells must not alias new ones.
func TestFingerprintGolden(t *testing.T) {
	const want = "05060a26ead98cc28e7bc44aae16e6edf9c737261677a806ef77e390b3d4362e"
	if got := testKey().Fingerprint(); got != want {
		t.Errorf("golden fingerprint changed:\n got %s\nwant %s\n"+
			"canonical form:\n%s\nIf the serialization change is intentional, bump SchemaVersion.",
			got, want, testKey().Canonical())
	}
}

// TestCanonicalCoversEveryConfigField asserts the canonical form names
// every knob, so no two distinct configs can share a fingerprint.
func TestCanonicalCoversEveryConfigField(t *testing.T) {
	c := testKey().Canonical()
	for _, field := range []string{
		"schema=", "workload=", "scheme=",
		"main_core_hz=", "checker_hz=", "num_checkers=", "log_bytes=",
		"entry_bytes=", "timeout_instrs=", "checkpoint_cycles=",
		"interrupt_interval_ns=", "max_instrs=", "disable_checkers=", "big_core=",
	} {
		if !strings.Contains(c, field) {
			t.Errorf("canonical form missing %q:\n%s", field, c)
		}
	}
}

// TestFingerprintSensitivity asserts that every key component moves
// the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := testKey().Fingerprint()
	mutations := map[string]Key{}

	k := testKey()
	k.Workload = "bitcount"
	mutations["workload"] = k

	k = testKey()
	k.Scheme = "unprotected"
	mutations["scheme"] = k

	k = testKey()
	k.Config.CheckerHz = 500_000_000
	mutations["config.CheckerHz"] = k

	k = testKey()
	k.Config.MaxInstrs = 4000
	mutations["config.MaxInstrs"] = k

	k = testKey()
	k.Fault = &paradet.Fault{Target: paradet.FaultDestReg, Seq: 40, Bit: 5}
	mutations["fault"] = k

	seen := map[string]string{"": base}
	for name, mk := range mutations {
		fp := mk.Fingerprint()
		if fp == base {
			t.Errorf("%s: fingerprint did not change", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %q", name, prev)
		}
		seen[fp] = name
	}

	fA := testKey()
	fA.Fault = &paradet.Fault{Target: paradet.FaultDestReg, Seq: 40, Bit: 5}
	fB := testKey()
	fB.Fault = &paradet.Fault{Target: paradet.FaultDestReg, Seq: 40, Bit: 5, Sticky: true}
	if fA.Fingerprint() == fB.Fingerprint() {
		t.Error("sticky flag must move the fingerprint")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	if _, ok := st.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	res := &paradet.Result{Workload: "stream", Protected: true, Instructions: 123, TimeNS: 456.5}
	if err := st.Put(key, &Cell{Result: res}); err != nil {
		t.Fatal(err)
	}
	cell, ok := st.Get(key)
	if !ok {
		t.Fatal("stored cell not found")
	}
	if cell.Schema != SchemaVersion || cell.Fingerprint != key.Fingerprint() {
		t.Errorf("cell identity wrong: %+v", cell)
	}
	if cell.Result == nil || cell.Result.Instructions != 123 || cell.Result.TimeNS != 456.5 {
		t.Errorf("payload mangled: %+v", cell.Result)
	}
	if cell.Workload != "stream" || cell.Scheme != "protected" {
		t.Errorf("key fields not embedded: %+v", cell)
	}

	// Sharded layout: cells/<fp[:2]>/<fp>.json.
	fp := key.Fingerprint()
	want := filepath.Join(st.Dir(), "cells", fp[:2], fp+".json")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("cell file not at sharded path: %v", err)
	}

	idx, err := st.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0].Fingerprint != fp || idx[0].Workload != "stream" {
		t.Errorf("index = %+v", idx)
	}

	// No temp droppings left behind.
	entries, _ := os.ReadDir(filepath.Dir(want))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestIndexListsLayouts asserts Put writes nothing beside the cell
// file, and Index lists the cells from the two layouts alone: a loose
// cell, a packed cell, and a packed cell shadowed by a loose copy each
// appear once, sorted by fingerprint. A leftover index.jsonl from an
// older build is ignored.
func TestIndexListsLayouts(t *testing.T) {
	s := openStore(t)
	packed := putTestCell(t, s, "stream", 1000)
	shadowed := putTestCell(t, s, "bitcount", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	loose := putTestCell(t, s, "randacc", 1000)
	putTestCell(t, s, "bitcount", 1000) // a loose copy beside the packed record
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "cells" && e.Name() != segDirName {
			t.Errorf("store root holds %s beside the two layouts", e.Name())
		}
	}
	if fp, err := s.Footprint(); err != nil || fp.LooseCells != 2 || fp.SegmentCells != 1 {
		t.Fatalf("layout = %+v (%v), want 2 loose cells and 1 unshadowed packed cell", fp, err)
	}

	stale := `{"fingerprint":"deadbeef","workload":"ghost","scheme":"protected","created":""}` + "\n"
	if err := os.WriteFile(filepath.Join(s.Dir(), "index.jsonl"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{packed.Fingerprint(), shadowed.Fingerprint(), loose.Fingerprint()}
	sort.Strings(want)
	var got []string
	for _, e := range idx {
		got = append(got, e.Fingerprint)
		if e.Workload == "" || e.Scheme != "protected" || e.Created == "" {
			t.Errorf("index entry missing fields: %+v", e)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("index fingerprints = %v, want %v", got, want)
	}
}

// TestSchemaMismatchIsMiss asserts that a cell written by a different
// (hypothetical) schema version is ignored, not an error.
func TestSchemaMismatchIsMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	if err := st.Put(key, &Cell{Result: &paradet.Result{Instructions: 1}}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the schema field on disk.
	path := st.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cell Cell
	if err := json.Unmarshal(data, &cell); err != nil {
		t.Fatal(err)
	}
	cell.Schema = SchemaVersion + 999
	data, _ = json.Marshal(cell)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Error("schema-mismatched cell must read as a miss")
	}

	// Truncated JSON is also a miss, not an error.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Error("corrupt cell must read as a miss")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}
