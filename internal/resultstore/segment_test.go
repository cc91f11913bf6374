package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paradet"
)

// treeSnapshot hashes every file under root (relative path -> content
// hash), the ground truth for "this operation wrote nothing".
func treeSnapshot(t *testing.T, root string) map[string]string {
	t.Helper()
	snap := map[string]string{}
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		sum := sha256.Sum256(data)
		snap[rel] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func sameTree(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// segmentPaths lists the store's published segment files.
func segmentPaths(t *testing.T, s *Store) []string {
	t.Helper()
	files, err := s.segmentFiles()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// looseCount counts loose cell files.
func looseCount(t *testing.T, s *Store) int {
	t.Helper()
	files, err := s.cellFiles()
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestCompactRoundTrip is the tentpole contract: compaction moves every
// loose cell into one verified segment, deletes the loose copies, and
// every cell reads back identically through the segment path — with
// stats, verify and the index all agreeing the store lost nothing.
func TestCompactRoundTrip(t *testing.T) {
	s := openStore(t)
	keys := []Key{
		putTestCell(t, s, "stream", 1000),
		putTestCell(t, s, "stream", 2000),
		putTestCell(t, s, "bitcount", 1000),
	}
	fk := Key{Workload: "stream", Scheme: "protected", Config: paradet.DefaultConfig(),
		Fault: &paradet.Fault{Target: paradet.FaultDestReg, Seq: 40, Bit: 5}}
	if err := s.Put(fk, &Cell{FaultRecord: &paradet.FaultRecord{Outcome: "detected"}}); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, fk)

	before, err := s.Footprint()
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packed != 4 || st.Removed != 4 || st.Corrupt != 0 || st.Dups != 0 {
		t.Fatalf("compact stats = %+v, want 4 packed / 4 removed", st)
	}
	if st.Segment == "" {
		t.Fatalf("compact stats = %+v, want a segment", st)
	}
	if n := looseCount(t, s); n != 0 {
		t.Errorf("loose cells after compact = %d, want 0", n)
	}
	if segs := segmentPaths(t, s); len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one", segs)
	}

	// Reads fall through to the segment — from this handle and a fresh
	// one (a separate process).
	for _, h := range []*Store{s, mustOpen(t, s.Dir())} {
		for _, k := range keys {
			c, ok := h.Get(k)
			if !ok {
				t.Fatalf("cell %s/%d lost by compaction", k.Workload, k.Config.MaxInstrs)
			}
			if c.Fingerprint != k.Fingerprint() {
				t.Errorf("cell identity mangled: %+v", c)
			}
		}
	}
	if c, ok := s.Get(fk); !ok || c.FaultRecord == nil || c.FaultRecord.Outcome != "detected" {
		t.Errorf("fault record mangled through segment: %+v", c)
	}

	// Per-scheme cell counts are identical before and after (the
	// acceptance criterion pdstore stats is held to).
	after, err := s.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	if after.Cells != before.Cells || len(after.Schemes) != len(before.Schemes) {
		t.Fatalf("footprint changed: before %+v after %+v", before, after)
	}
	for i := range before.Schemes {
		if after.Schemes[i].Scheme != before.Schemes[i].Scheme ||
			after.Schemes[i].Cells != before.Schemes[i].Cells ||
			after.Schemes[i].Faults != before.Schemes[i].Faults {
			t.Errorf("scheme %s counts changed: before %+v after %+v",
				before.Schemes[i].Scheme, before.Schemes[i], after.Schemes[i])
		}
	}
	if after.LooseCells != 0 || after.SegmentCells != 4 || after.Segments != 1 {
		t.Errorf("layout accounting wrong: %+v", after)
	}

	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Good != 4 || rep.Segments != 1 {
		t.Errorf("compacted store failed verify: %+v", rep)
	}
	idx, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 4 {
		t.Errorf("index entries = %d, want 4", len(idx))
	}

	// A second compaction has nothing to do and publishes no segment.
	st, err = s.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packed != 0 || st.Segment != "" {
		t.Errorf("idle compact stats = %+v, want nothing packed", st)
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompactDryRunIsReadOnly asserts a dry compaction reports the
// same accounting while leaving every byte of the store untouched.
func TestCompactDryRunIsReadOnly(t *testing.T) {
	s := openStore(t)
	putTestCell(t, s, "stream", 1000)
	putTestCell(t, s, "bitcount", 1000)
	before := treeSnapshot(t, s.Dir())

	st, err := s.Compact(CompactOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packed != 2 || st.Removed != 0 {
		t.Errorf("dry stats = %+v, want 2 packed / 0 removed", st)
	}
	if !sameTree(before, treeSnapshot(t, s.Dir())) {
		t.Error("compact -dry-run modified the store")
	}
}

// TestCompactHonoursCutoff asserts only cold cells are packed: hot
// cells stay loose and keep serving reads.
func TestCompactHonoursCutoff(t *testing.T) {
	s := openStore(t)
	cold := putTestCell(t, s, "stream", 1000)
	hot := putTestCell(t, s, "bitcount", 1000)
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.Path(cold), past, past); err != nil {
		t.Fatal(err)
	}

	st, err := s.Compact(CompactOptions{OlderThan: time.Now().Add(-24 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packed != 1 || st.Hot != 1 || st.Removed != 1 {
		t.Fatalf("stats = %+v, want 1 packed / 1 hot", st)
	}
	if _, ok := s.Get(cold); !ok {
		t.Error("cold cell unreadable after packing")
	}
	if _, ok := s.Get(hot); !ok {
		t.Error("hot cell lost")
	}
	if n := looseCount(t, s); n != 1 {
		t.Errorf("loose cells = %d, want the hot one only", n)
	}
}

// TestCompactSkipsCorruptCells asserts a damaged loose cell is neither
// packed nor deleted — compaction must never launder corruption into a
// checksummed segment or destroy evidence.
func TestCompactSkipsCorruptCells(t *testing.T) {
	s := openStore(t)
	good := putTestCell(t, s, "stream", 1000)
	bad := putTestCell(t, s, "bitcount", 1000)
	if err := os.WriteFile(s.Path(bad), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := s.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packed != 1 || st.Corrupt != 1 || st.Removed != 1 {
		t.Fatalf("stats = %+v, want 1 packed / 1 corrupt / 1 removed", st)
	}
	if _, ok := s.Get(good); !ok {
		t.Error("good cell lost")
	}
	if _, err := os.Stat(s.Path(bad)); err != nil {
		t.Error("corrupt loose cell deleted by compaction")
	}
}

// TestCompactDedupesAgainstSegments asserts a loose cell whose
// fingerprint an existing segment already serves is removed without
// repacking (the loose copy a racing sweep re-created).
func TestCompactDedupesAgainstSegments(t *testing.T) {
	s := openStore(t)
	k := putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	// A racing writer re-creates the loose cell after compaction.
	if err := s.Put(k, &Cell{Result: &paradet.Result{Workload: "stream", Instructions: 1000}}); err != nil {
		t.Fatal(err)
	}

	st, err := s.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dups != 1 || st.Packed != 0 || st.Removed != 1 || st.Segment != "" {
		t.Fatalf("stats = %+v, want 1 dup removed and no new segment", st)
	}
	if _, ok := s.Get(k); !ok {
		t.Error("deduped cell lost")
	}
	if segs := segmentPaths(t, s); len(segs) != 1 {
		t.Errorf("segments = %v, want the original one only", segs)
	}
}

// TestGetFallsThroughDamagedLooseCell asserts a corrupted loose cell
// does not mask its packed twin: the read path falls through to the
// independently checksummed segment record.
func TestGetFallsThroughDamagedLooseCell(t *testing.T) {
	s := openStore(t)
	k := putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	// Re-create the loose cell, then damage it.
	if err := s.Put(k, &Cell{Result: &paradet.Result{Workload: "stream", Instructions: 1000}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(k), []byte("{damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, ok := mustOpen(t, s.Dir()).Get(k)
	if !ok || c.Result == nil || c.Result.Instructions != 1000 {
		t.Errorf("damaged loose cell masked the packed twin: ok=%v c=%+v", ok, c)
	}
}

// TestSegmentCorruptionMatrix is the satellite corruption matrix: a
// truncated segment, a flipped byte inside a record, a damaged footer
// checksum, and a missing footer must each make verify fail loudly and
// degrade reads to misses (re-simulation) — never to wrong data.
func TestSegmentCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keys := []Key{
		putTestCell(t, s, "stream", 1000),
		putTestCell(t, s, "bitcount", 2000),
		putTestCell(t, s, "randacc", 3000),
	}
	want := map[string]uint64{}
	for _, k := range keys {
		c, ok := s.Get(k)
		if !ok {
			t.Fatal("seed cell missing")
		}
		want[k.Fingerprint()] = c.Result.Instructions
	}
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	segs := segmentPaths(t, s)
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	segPath := segs[0]
	pristine, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the first record so "flip a byte in a record" aims inside
	// payload bytes, not at structure the footer checks would also catch.
	r, err := openSegment(segPath)
	if err != nil {
		t.Fatal(err)
	}
	first := r.footer.Entries[0]

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		// partial marks damage confined to one record: the other
		// records must keep serving.
		partial bool
	}{
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-10] }, false},
		{"truncated-mid-record", func(b []byte) []byte { return b[:int(first.Offset)+3] }, false},
		{"flipped-record-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[first.Offset+1] ^= 0xff
			return c
		}, true},
		{"bad-footer-checksum", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-segTrailerLen+4] ^= 0xff // inside the stored footer hash
			return c
		}, false},
		{"missing-footer", func(b []byte) []byte { return b[:int(first.Offset)+int(first.Length)] }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(segPath, tc.mutate(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(segPath, pristine, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			h := mustOpen(t, dir) // fresh handle: no cached footer
			rep, err := h.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Fatalf("verify passed a %s segment: %+v", tc.name, rep)
			}
			misses := 0
			for _, k := range keys {
				c, ok := h.Get(k)
				if !ok {
					misses++
					continue
				}
				// A surviving read must return the exact original data.
				if c.Result == nil || c.Result.Instructions != want[k.Fingerprint()] {
					t.Fatalf("%s: read returned wrong data: %+v", tc.name, c)
				}
			}
			if misses == 0 {
				t.Errorf("%s: no read degraded to a miss", tc.name)
			}
			if tc.partial && misses != 1 {
				t.Errorf("%s: misses = %d, want 1 (damage is confined to one record)", tc.name, misses)
			}
		})
	}

	// Restored, the store must verify clean again.
	rep, err := mustOpen(t, dir).Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("restored segment fails verify: %+v", rep)
	}
}

// TestCompactFailureKeepsLooseCells forces the publish path to fail (a
// file squats where the segments directory must go) and asserts the
// loose cells survive untouched: compaction deletes nothing until a
// published segment verified.
func TestCompactFailureKeepsLooseCells(t *testing.T) {
	s := openStore(t)
	k := putTestCell(t, s, "stream", 1000)
	// Make the segments path un-creatable: a file where the directory
	// must go.
	if err := os.WriteFile(s.segDir(), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(CompactOptions{}); err == nil {
		t.Fatal("compact succeeded with an uncreatable segments dir")
	}
	if _, ok := s.Get(k); !ok {
		t.Error("failed compaction lost the loose cell")
	}
	if n := looseCount(t, s); n != 1 {
		t.Errorf("loose cells = %d, want 1", n)
	}
}

// TestGCAgesOutSegments asserts whole-segment age-out: a segment whose
// every record is old goes, one holding any fresh record stays intact.
func TestGCAgesOutSegments(t *testing.T) {
	s := openStore(t)
	oldA := putTestCell(t, s, "stream", 1000)
	oldB := putTestCell(t, s, "stream", 2000)
	past := time.Now().Add(-48 * time.Hour)
	for _, k := range []Key{oldA, oldB} {
		if err := os.Chtimes(s.Path(k), past, past); err != nil {
			t.Fatal(err)
		}
	}
	// First segment: all old. Second segment: mixed (one fresh).
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	mixedOld := putTestCell(t, s, "bitcount", 1000)
	if err := os.Chtimes(s.Path(mixedOld), past, past); err != nil {
		t.Fatal(err)
	}
	fresh := putTestCell(t, s, "bitcount", 2000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := len(segmentPaths(t, s)); n != 2 {
		t.Fatalf("segments = %d, want 2", n)
	}

	cutoff := time.Now().Add(-24 * time.Hour)
	st, err := s.GC(cutoff, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 2 || st.SegmentsRemoved != 1 || st.Kept != 2 {
		t.Fatalf("dry stats = %+v, want 2 removed in 1 segment, 2 kept", st)
	}
	if n := len(segmentPaths(t, s)); n != 2 {
		t.Fatal("dry-run deleted a segment")
	}

	if st, err = s.GC(cutoff, false); err != nil {
		t.Fatal(err)
	}
	if st.SegmentsRemoved != 1 {
		t.Fatalf("stats = %+v, want 1 segment removed", st)
	}
	if n := len(segmentPaths(t, s)); n != 1 {
		t.Errorf("segments = %d, want 1", n)
	}
	for _, k := range []Key{oldA, oldB} {
		if _, ok := s.Get(k); ok {
			t.Error("aged-out packed cell still readable")
		}
	}
	// The mixed segment survives whole: even its old record still reads.
	for _, k := range []Key{mixedOld, fresh} {
		if _, ok := s.Get(k); !ok {
			t.Error("cell in kept segment lost")
		}
	}
	idx, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Errorf("post-GC index entries = %d, want 2", len(idx))
	}
}

// TestMergeFromCompactedSource asserts Merge lifts packed records out
// of source segments as loose destination cells, byte-identical to the
// loose originals, deduplicating against both destination layouts.
func TestMergeFromCompactedSource(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	k1 := putTestCell(t, src, "stream", 1000)
	k2 := putTestCell(t, src, "bitcount", 1000)
	wantBytes, err := os.ReadFile(src.Path(k1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}

	st, err := Merge(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 2 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 2 copied", st)
	}
	for _, k := range []Key{k1, k2} {
		if _, ok := dst.Get(k); !ok {
			t.Error("packed source cell missing from merge destination")
		}
	}
	gotBytes, err := os.ReadFile(dst.Path(k1))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Error("segment round-trip changed the cell bytes")
	}

	// Re-merging dedupes; compacting the destination and re-merging
	// still dedupes (dst-side dedupe sees both layouts).
	if st, err = Merge(dst, src); err != nil {
		t.Fatal(err)
	}
	if st.Copied != 0 || st.Dups != 2 {
		t.Fatalf("re-merge stats = %+v, want all dups", st)
	}
	if _, err := dst.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if st, err = Merge(dst, src); err != nil {
		t.Fatal(err)
	}
	if st.Copied != 0 || st.Dups != 2 {
		t.Fatalf("post-compact re-merge stats = %+v, want all dups", st)
	}
}

// resignSegment mutates a segment's footer and re-signs the trailer,
// producing a structurally valid (checksum-correct) but forged file —
// the adversary a mutating fuzzer cannot play because it cannot forge
// SHA-256.
func resignSegment(t *testing.T, path string, mutate func(*segFooter)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.BigEndian.Uint32(data[len(data)-segTrailerLen:]))
	footerOff := len(data) - segTrailerLen - footerLen
	var f segFooter
	if err := json.Unmarshal(data[footerOff:footerOff+footerLen], &f); err != nil {
		t.Fatal(err)
	}
	mutate(&f)
	nf, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte{}, data[:footerOff]...), nf...)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(nf)))
	sum := sha256.Sum256(nf)
	body = append(body, lenBuf[:]...)
	body = append(body, sum[:]...)
	body = append(body, []byte(segTrailerMagic)...)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRejectsForgedEntryBounds pins the int64-overflow fix: a
// structurally valid segment whose footer entry carries a near-MaxInt64
// length (or other out-of-bounds geometry) must be rejected at open —
// never reach make([]byte, Length) and panic, never over-allocate.
func TestSegmentRejectsForgedEntryBounds(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPaths(t, s)[0]
	pristine, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	forgeries := map[string]func(*segFooter){
		"overflow-length":  func(f *segFooter) { f.Entries[0].Length = int64(^uint64(0) >> 1) },
		"overflow-sum":     func(f *segFooter) { f.Entries[0].Length = int64(^uint64(0)>>1) - f.Entries[0].Offset + 1 },
		"negative-length":  func(f *segFooter) { f.Entries[0].Length = -1 },
		"negative-offset":  func(f *segFooter) { f.Entries[0].Offset = -8 },
		"offset-in-footer": func(f *segFooter) { f.Entries[0].Offset = int64(len(pristine)) },
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(segPath, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			resignSegment(t, segPath, forge)
			h := mustOpen(t, dir)
			if _, ok := h.Get(k); ok { // must miss — and must not panic or OOM
				t.Error("forged segment served a cell")
			}
			rep, err := h.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Error("forged segment passed verify")
			}
		})
	}
}

// TestSegmentDigestMustBeLowercaseHex asserts a footer entry whose
// sha256 is not exactly 64 lowercase hex digits never matches its
// record, even when it spells the record's true digest another way.
func TestSegmentDigestMustBeLowercaseHex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPaths(t, s)[0]
	pristine, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	forgeries := map[string]func(string) string{
		"uppercase":   strings.ToUpper,
		"short":       func(d string) string { return d[:63] },
		"long":        func(d string) string { return d + "0" },
		"not-hex":     func(d string) string { return "zz" + d[2:] },
		"empty":       func(string) string { return "" },
		"prefix-0x":   func(d string) string { return "0x" + d[:62] },
		"space-after": func(d string) string { return d[:63] + " " },
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(segPath, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			resignSegment(t, segPath, func(f *segFooter) { f.Entries[0].SHA256 = forge(f.Entries[0].SHA256) })
			h := mustOpen(t, dir)
			if _, ok := h.Get(k); ok {
				t.Error("a record whose digest is not 64 lowercase hex digits was served")
			}
			if rep, err := h.Verify(); err != nil || rep.OK() {
				t.Errorf("verify = %+v, %v; want a problem", rep, err)
			}
		})
	}
}

// TestSegScanReloadsReplacedSegment asserts the footer cache does not
// pin a once-broken path: when the file at a segment path is replaced
// (a GC'd sequence number reused by a later compaction), the same
// long-lived handle re-reads it.
func TestSegScanReloadsReplacedSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPaths(t, s)[0]
	pristine, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Break the segment and make the handle cache the failure.
	if err := os.WriteFile(segPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("broken segment served a cell")
	}
	// Heal it (same path, new content) — the cache must notice.
	if err := os.WriteFile(segPath, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Error("handle kept serving a healed segment as broken")
	}
}

// cachedSegment returns the handle's cache entry for a segment path,
// nil if it holds none.
func cachedSegment(s *Store, path string) *segCacheEntry {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	return s.segs[path]
}

// closed reports whether a segment reader's file has been closed.
func closed(r *segReader) bool {
	_, err := r.f.Stat()
	return errors.Is(err, os.ErrClosed)
}

// packedSegment writes one cell for k with the given instruction count
// into a fresh store, packs it, and returns the segment's path.
func packedSegment(t *testing.T, k Key, instrs uint64) string {
	t.Helper()
	s := openStore(t)
	if err := s.Put(k, &Cell{Result: &paradet.Result{Workload: k.Workload, Instructions: instrs}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	return segmentPaths(t, s)[0]
}

// TestSegmentHandleFollowsReplacement asserts a cached segment's open
// file never outlives the file at its path: once another segment is
// renamed over it, even one with the old size and mtime, the next read
// serves the new segment's record, never the old handle's bytes, and
// the old file is closed.
func TestSegmentHandleFollowsReplacement(t *testing.T) {
	for _, sameStat := range []bool{false, true} {
		t.Run(fmt.Sprintf("same-size-and-mtime=%t", sameStat), func(t *testing.T) {
			s := openStore(t)
			k := putTestCell(t, s, "stream", 1000)
			if _, err := s.Compact(CompactOptions{}); err != nil {
				t.Fatal(err)
			}
			segPath := segmentPaths(t, s)[0]
			if c, ok := s.Get(k); !ok || c.Result.Instructions != 1000 {
				t.Fatalf("packed cell read %v %+v", ok, c)
			}
			old := cachedSegment(s, segPath)
			if old == nil || old.r == nil {
				t.Fatal("the read cached no reader")
			}

			// "2000" has as many digits as "1000", so the segments are
			// the same size.
			instrs := uint64(2000)
			if !sameStat {
				instrs = 20000
			}
			repl := packedSegment(t, k, instrs)
			fi, err := os.Stat(segPath)
			if err != nil {
				t.Fatal(err)
			}
			if sameStat {
				if err := os.Chtimes(repl, fi.ModTime(), fi.ModTime()); err != nil {
					t.Fatal(err)
				}
				if rfi, err := os.Stat(repl); err != nil || rfi.Size() != fi.Size() || !rfi.ModTime().Equal(fi.ModTime()) {
					t.Fatalf("replacement stat %v (%v), want size %d and mtime %v", rfi, err, fi.Size(), fi.ModTime())
				}
			}
			if err := os.Rename(repl, segPath); err != nil {
				t.Fatal(err)
			}

			for _, read := range []string{"first", "repeated"} {
				c, ok := s.Get(k)
				if !ok || c.Fingerprint != k.Fingerprint() || c.Result.Instructions != instrs {
					t.Fatalf("%s read after replacement: %v %+v, want the new segment's cell (%d instructions)", read, ok, c, instrs)
				}
			}
			if !closed(old.r) {
				t.Error("the replaced segment's file is still open")
			}
		})
	}
}

// TestSegmentCacheDropsRemovedSegments asserts a segment that leaves
// the listing leaves the cache too, its file closed: at once when this
// handle's GC removes it, and on the next read when another handle's
// does.
func TestSegmentCacheDropsRemovedSegments(t *testing.T) {
	s := openStore(t)
	k := putTestCell(t, s, "stream", 1000)
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.Path(k), past, past); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPaths(t, s)[0]
	other := mustOpen(t, s.Dir())
	for _, h := range []*Store{s, other} {
		if _, ok := h.Get(k); !ok {
			t.Fatal("packed cell missed")
		}
	}
	ours, theirs := cachedSegment(s, segPath), cachedSegment(other, segPath)
	if ours == nil || ours.r == nil || theirs == nil || theirs.r == nil {
		t.Fatal("the reads cached no reader")
	}

	st, err := s.GC(time.Now().Add(-24*time.Hour), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsRemoved != 1 {
		t.Fatalf("GC stats = %+v, want 1 segment removed", st)
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("GC left the segment file: %v", err)
	}
	if cachedSegment(s, segPath) != nil || !closed(ours.r) {
		t.Error("GC kept the removed segment's cache entry or open file")
	}

	if c, ok := other.Get(k); ok {
		t.Fatalf("another handle read a removed segment's cell: %+v", c)
	}
	if cachedSegment(other, segPath) != nil || !closed(theirs.r) {
		t.Error("a read kept the cache entry or open file of a segment that left the listing")
	}
}

// TestSegmentReadsRaceReplacement races packed reads on one handle
// against a writer that keeps renaming one of two segments over the
// same path (run it under -race). A read that loses a race with the
// close of a replaced file may miss, but every hit must be one of the
// two cells.
func TestSegmentReadsRaceReplacement(t *testing.T) {
	s := openStore(t)
	k := putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPaths(t, s)[0]
	images := make([][]byte, 2)
	for i, instrs := range []uint64{1000, 20000} {
		data, err := os.ReadFile(packedSegment(t, k, instrs))
		if err != nil {
			t.Fatal(err)
		}
		images[i] = data
	}
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			tmp := filepath.Join(filepath.Dir(segPath), ".tmp-race")
			if err := os.WriteFile(tmp, images[i%2], 0o644); err != nil {
				writerDone <- err
				return
			}
			if err := os.Rename(tmp, segPath); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var hits atomic.Int64
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c, ok := s.Get(k)
				if !ok {
					continue
				}
				hits.Add(1)
				if c.Fingerprint != k.Fingerprint() || c.Result.Instructions != 1000 && c.Result.Instructions != 20000 {
					errs <- fmt.Errorf("read served %+v", c)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	t.Logf("%d of 800 reads hit", hits.Load())
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMergeRefusesCrossSchemaSegment asserts a source segment written
// by a different SchemaVersion refuses the whole merge, exactly like a
// foreign loose cell.
func TestMergeRefusesCrossSchemaSegment(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	putTestCell(t, src, "stream", 1000)
	// writeSegment always stamps the engine schema, so forge a foreign
	// segment by patching a real one's footer and re-signing the
	// trailer: the file stays structurally valid, just foreign.
	if _, err := src.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	resignSegment(t, segmentPaths(t, src)[0], func(f *segFooter) { f.Schema = SchemaVersion + 1 })

	if _, err := Merge(dst, src); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("cross-schema segment merge not refused: %v", err)
	}
	files, err := dst.cellFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("refused merge copied %d cells, want 0", len(files))
	}
}

// TestOpenExistingIsReadOnly asserts the read-only open neither
// invents stores nor touches existing ones.
func TestOpenExistingIsReadOnly(t *testing.T) {
	if _, err := OpenExisting(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("OpenExisting invented a store")
	}
	dir := t.TempDir() // bare directory, no cells/ subtree
	before := treeSnapshot(t, dir)
	if _, err := OpenExisting(dir); err != nil {
		t.Fatal(err)
	}
	if !sameTree(before, treeSnapshot(t, dir)) {
		t.Error("OpenExisting wrote to the directory")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("OpenExisting created %v", entries)
	}
}

// TestSegmentSequenceAllocation asserts published segments take
// strictly increasing sequence numbers and never clobber an existing
// file (the os.Link publish contract).
func TestSegmentSequenceAllocation(t *testing.T) {
	s := openStore(t)
	putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	putTestCell(t, s, "stream", 2000)
	st, err := s.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	segs := segmentPaths(t, s)
	if len(segs) != 2 {
		t.Fatalf("segments = %v", segs)
	}
	if filepath.Base(segs[0]) != "00000001.seg" || filepath.Base(segs[1]) != "00000002.seg" {
		t.Errorf("sequence names = %v", segs)
	}
	if filepath.Base(st.Segment) != "00000002.seg" {
		t.Errorf("second compact published %s", st.Segment)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(s.segDir())
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestFootprintString is a tiny guard that CompactStats renders both
// shapes without panicking (operators read these lines).
func TestCompactStatsString(t *testing.T) {
	with := CompactStats{Packed: 3, Segment: "/x/segments/00000001.seg", SegmentBytes: 2048, Removed: 3}
	if !strings.Contains(with.String(), "00000001.seg") {
		t.Errorf("String() = %s", with)
	}
	without := CompactStats{Dups: 1, Removed: 1}
	if !strings.Contains(without.String(), "packed 0 cells") {
		t.Errorf("String() = %s", without)
	}
	_ = fmt.Sprintf("%v %v", with, without)
}
