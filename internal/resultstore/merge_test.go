package resultstore

import (
	"os"
	"strings"
	"testing"
	"time"

	"paradet"
)

// putTestCell writes one distinct cell and returns its key.
func putTestCell(t *testing.T, s *Store, workload string, maxInstrs uint64) Key {
	t.Helper()
	cfg := paradet.DefaultConfig()
	cfg.MaxInstrs = maxInstrs
	k := Key{Workload: workload, Scheme: "protected", Config: cfg}
	if err := s.Put(k, &Cell{Result: &paradet.Result{Workload: workload, Instructions: maxInstrs}}); err != nil {
		t.Fatal(err)
	}
	return k
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMergeCopiesAndDedupes is the shard-recombination contract: cells
// from disjoint stores all land in the destination, cells present in
// several sources (overlapping shards) copy once, and the destination
// lists exactly the merged cells.
func TestMergeCopiesAndDedupes(t *testing.T) {
	srcA, srcB, dst := openStore(t), openStore(t), openStore(t)
	kA1 := putTestCell(t, srcA, "stream", 1000)
	kA2 := putTestCell(t, srcA, "stream", 2000)
	kB := putTestCell(t, srcB, "bitcount", 1000)
	putTestCell(t, srcB, "stream", 2000) // overlaps srcA: same fingerprint

	st, err := Merge(dst, srcA, srcB)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 3 || st.Dups != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 3 copied / 1 dup / 0 corrupt", st)
	}
	for _, k := range []Key{kA1, kA2, kB} {
		if _, ok := dst.Get(k); !ok {
			t.Errorf("merged store missing %s/%d", k.Workload, k.Config.MaxInstrs)
		}
	}
	idx, err := dst.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Errorf("merged index has %d entries, want 3", len(idx))
	}

	// Merging again is a no-op: everything dedupes.
	st, err = Merge(dst, srcA, srcB)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 0 || st.Dups != 4 {
		t.Errorf("re-merge stats = %+v, want 0 copied / 4 dups", st)
	}
}

// TestMergeEmptySource asserts a source store with no cells (a shard
// that owned nothing) merges cleanly.
func TestMergeEmptySource(t *testing.T) {
	src, empty, dst := openStore(t), openStore(t), openStore(t)
	putTestCell(t, src, "stream", 1000)
	st, err := Merge(dst, empty, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 1 || st.Dups != 0 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want exactly the one real cell copied", st)
	}
}

// TestMergeSkipsCorruptCells asserts unreadable and
// fingerprint-inconsistent source cells are skipped with a warning
// while the rest of the merge proceeds.
func TestMergeSkipsCorruptCells(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	good := putTestCell(t, src, "stream", 1000)
	bad := putTestCell(t, src, "bitcount", 1000)
	if err := os.WriteFile(src.Path(bad), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Merge(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 1 || st.Corrupt != 1 {
		t.Errorf("stats = %+v, want 1 copied / 1 corrupt", st)
	}
	if len(st.Warnings) != 1 || !strings.Contains(st.Warnings[0], "corrupt") {
		t.Errorf("warnings = %v, want one corrupt-cell warning", st.Warnings)
	}
	if _, ok := dst.Get(good); !ok {
		t.Error("good cell did not survive a corrupt sibling")
	}
	if _, ok := dst.Get(bad); ok {
		t.Error("corrupt cell must not be copied")
	}
}

// TestMergeRefusesCrossSchema asserts a source carrying a different
// SchemaVersion refuses the whole merge before copying anything.
func TestMergeRefusesCrossSchema(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	putTestCell(t, src, "stream", 1000)
	foreign := putTestCell(t, src, "bitcount", 1000)
	data, err := os.ReadFile(src.Path(foreign))
	if err != nil {
		t.Fatal(err)
	}
	data = []byte(strings.Replace(string(data),
		`"schema": 1`, `"schema": 999`, 1))
	if err := os.WriteFile(src.Path(foreign), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Merge(dst, src); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("cross-schema merge not refused: %v", err)
	}
	files, err := dst.cellFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("refused merge copied %d cells, want 0", len(files))
	}
}

// TestMergeRefusesSelfMerge guards against folding a store into itself.
func TestMergeRefusesSelfMerge(t *testing.T) {
	s := openStore(t)
	if _, err := Merge(s, s); err == nil {
		t.Error("self-merge accepted")
	}
}

// TestGCAgesOutOldCells asserts age-out by modification time, dry-run
// first, and that the index no longer lists the aged-out cell.
func TestGCAgesOutOldCells(t *testing.T) {
	s := openStore(t)
	old := putTestCell(t, s, "stream", 1000)
	fresh := putTestCell(t, s, "bitcount", 1000)
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.Path(old), past, past); err != nil {
		t.Fatal(err)
	}
	cutoff := time.Now().Add(-24 * time.Hour)

	st, err := s.GC(cutoff, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 1 || st.Kept != 1 {
		t.Errorf("dry-run stats = %+v, want 1 removed / 1 kept", st)
	}
	if _, ok := s.Get(old); !ok {
		t.Fatal("dry-run removed a cell")
	}

	if st, err = s.GC(cutoff, false); err != nil {
		t.Fatal(err)
	}
	if st.Removed != 1 || st.Kept != 1 {
		t.Errorf("stats = %+v, want 1 removed / 1 kept", st)
	}
	if _, ok := s.Get(old); ok {
		t.Error("aged-out cell still readable")
	}
	if _, ok := s.Get(fresh); !ok {
		t.Error("fresh cell collected")
	}
	idx, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 {
		t.Errorf("post-GC index has %d entries, want 1", len(idx))
	}
}

// TestGCDryRunIsReadOnly is the regression test for the dry-run
// contract: gc -dry-run must be strictly read-only, with no cell
// deletion. (The accounting must still be reported in full.)
func TestGCDryRunIsReadOnly(t *testing.T) {
	s := openStore(t)
	old := putTestCell(t, s, "stream", 1000)
	putTestCell(t, s, "bitcount", 1000)
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.Path(old), past, past); err != nil {
		t.Fatal(err)
	}
	before := treeSnapshot(t, s.Dir())

	st, err := s.GC(time.Now().Add(-24*time.Hour), true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 1 || st.Kept != 1 {
		t.Errorf("dry stats = %+v, want 1 removed / 1 kept", st)
	}
	if !sameTree(before, treeSnapshot(t, s.Dir())) {
		t.Error("gc -dry-run modified the store")
	}
}

// TestFootprint asserts the per-scheme breakdown.
func TestFootprint(t *testing.T) {
	s := openStore(t)
	putTestCell(t, s, "stream", 1000)
	putTestCell(t, s, "stream", 2000)
	cfg := paradet.DefaultConfig()
	fk := Key{Workload: "stream", Scheme: "protected", Config: cfg,
		Fault: &paradet.Fault{Target: paradet.FaultDestReg, Seq: 40, Bit: 5}}
	if err := s.Put(fk, &Cell{FaultRecord: &paradet.FaultRecord{}}); err != nil {
		t.Fatal(err)
	}
	uk := Key{Workload: "stream", Scheme: "unprotected", Config: cfg}
	if err := s.Put(uk, &Cell{Result: &paradet.Result{}}); err != nil {
		t.Fatal(err)
	}

	fp, err := s.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp.Cells != 4 || fp.Bytes == 0 || fp.Corrupt != 0 {
		t.Errorf("footprint = %+v", fp)
	}
	if len(fp.Schemes) != 2 || fp.Schemes[0].Scheme != "protected" || fp.Schemes[1].Scheme != "unprotected" {
		t.Fatalf("schemes = %+v", fp.Schemes)
	}
	if fp.Schemes[0].Cells != 3 || fp.Schemes[0].Faults != 1 {
		t.Errorf("protected footprint = %+v, want 3 cells / 1 fault", fp.Schemes[0])
	}
}

// TestVerify asserts clean stores verify, and a damaged cell is
// reported.
func TestVerify(t *testing.T) {
	s := openStore(t)
	k1 := putTestCell(t, s, "stream", 1000)
	putTestCell(t, s, "bitcount", 1000)
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Cells != 2 || rep.Good != 2 {
		t.Fatalf("clean store failed verify: %+v", rep)
	}

	// Damage one cell's payload in place: content no longer matches
	// the embedded fingerprint recomputation path (workload changed).
	data, err := os.ReadFile(s.Path(k1))
	if err != nil {
		t.Fatal(err)
	}
	data = []byte(strings.Replace(string(data), `"workload": "stream"`, `"workload": "streaX"`, 1))
	if err := os.WriteFile(s.Path(k1), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Problems) != 1 {
		t.Fatalf("verify missed damage: %+v", rep)
	}
	if rep.Good != 1 {
		t.Errorf("Good = %d, want 1", rep.Good)
	}
}
