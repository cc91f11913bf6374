package resultstore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Merge copies every cell the destination store is missing out of the
// source stores, in order — loose cells and packed segment records
// alike. It is the recombination step for sharded campaigns on hosts
// without a shared filesystem: N shards execute disjoint grid slices
// into their own stores, Merge folds them into one, and re-running the
// campaign against the result replays the full spec at zero simulation
// cost.
//
// Cells already present in the destination (in either layout) are
// deduplicated by fingerprint (content addressing makes the copies
// interchangeable). Source segment records land as loose cells in the
// destination — byte-identical to the loose cell they were packed
// from — so merging never creates segments; the operator compacts the
// destination separately if wanted. Source cells that are unreadable
// or fail decodeCell's rule, and structurally broken source segments,
// are skipped with a warning, never an error. A source loose cell
// that decodeCell refuses for its schema, or a segment footer carrying
// a different SchemaVersion, refuses the whole merge before anything
// is copied: its store belongs to an incompatible engine, and folding
// it in would bury cells that can never hit.
func Merge(dst *Store, srcs ...*Store) (MergeStats, error) {
	var st MergeStats
	st.Sources = len(srcs)

	// Refuse cross-schema merges up front, before any copy: merging is
	// additive, but a half-applied refusal is still confusing.
	for _, src := range srcs {
		if sameDir(dst.dir, src.dir) {
			return st, fmt.Errorf("resultstore: merge source %s is the destination", src.dir)
		}
		files, err := src.cellFiles()
		if err != nil {
			return st, err
		}
		for _, path := range files {
			// Other failures are counted (and warned about) during the
			// copy pass.
			if _, _, _, err := src.readLoose(path); errors.Is(err, errSchema) {
				return st, fmt.Errorf("resultstore: %s: %v: refusing cross-schema merge", path, err)
			}
		}
		readers, _ := src.segScan()
		for _, r := range readers {
			if r.footer.Schema != SchemaVersion {
				return st, fmt.Errorf("resultstore: %s has schema %d, this engine writes schema %d: refusing cross-schema merge",
					r.path, r.footer.Schema, SchemaVersion)
			}
		}
	}

	// Snapshot the destination's segment readers once (per-cell rescans
	// would cost O(cells x segments) filesystem calls). Merge only adds
	// loose cells, so the snapshot cannot go stale mid-merge; a packed
	// dup is read-verified before it suppresses a copy.
	dstReaders, _ := dst.segScan()
	copyCell := func(fp string, data []byte) error {
		_, _, _, err := dst.readLoose(dst.cellPath(fp))
		if _, packed := dst.firstRecord(dstReaders, fp); err == nil || packed {
			st.Dups++
			return nil
		}
		if err := writeFileAtomic(dst.cellPath(fp), data); err != nil {
			return err
		}
		st.Copied++
		return nil
	}
	for _, src := range srcs {
		files, err := src.cellFiles()
		if err != nil {
			return st, err
		}
		for _, path := range files {
			c, data, _, err := src.readLoose(path)
			if err != nil {
				st.Corrupt++
				st.Warnings = append(st.Warnings, fmt.Sprintf("skipping corrupt cell %s: %v", path, err))
				continue
			}
			if err := copyCell(c.Fingerprint, data); err != nil {
				return st, err
			}
		}
		readers, broken := src.segScan()
		for _, err := range broken {
			st.Corrupt++
			st.Warnings = append(st.Warnings, fmt.Sprintf("skipping broken segment: %v", err))
		}
		for _, r := range readers {
			for _, e := range r.footer.Entries {
				c, data, err := src.readRecord(r, e)
				if err != nil {
					st.Corrupt++
					st.Warnings = append(st.Warnings, fmt.Sprintf("skipping corrupt segment record: %v", err))
					continue
				}
				if err := copyCell(c.Fingerprint, data); err != nil {
					return st, err
				}
			}
		}
	}
	return st, nil
}

// MergeStats reports what a Merge did.
type MergeStats struct {
	// Sources is the number of source stores.
	Sources int
	// Copied counts cells copied into the destination.
	Copied int
	// Dups counts source cells whose fingerprint the destination
	// already held (overlapping shards, re-merged stores).
	Dups int
	// Corrupt counts skipped source cells: unreadable, or failing
	// decodeCell's rule.
	Corrupt int
	// Warnings describes each skipped cell, for operators to surface.
	Warnings []string
}

func (m MergeStats) String() string {
	return fmt.Sprintf("merged %d source(s): %d copied, %d duplicate, %d corrupt skipped",
		m.Sources, m.Copied, m.Dups, m.Corrupt)
}

// GCStats reports what a GC pass did (or, dry, would do).
type GCStats struct {
	// Scanned is the number of cells examined (loose files plus packed
	// segment records).
	Scanned int
	// Removed counts cells older than the cutoff (deleted unless dry).
	Removed int
	// RemovedBytes is their total size.
	RemovedBytes int64
	// Kept counts surviving cells.
	Kept int
	// SegmentsRemoved counts whole segment files aged out.
	SegmentsRemoved int
}

// GC ages out loose cells whose file modification time predates cutoff
// and whole segments every one of whose records was packed from a cell
// that old (a segment holding even one fresh cell is kept intact —
// segments are immutable, so partial removal is impossible). Content
// addressing makes this always safe: an aged-out cell simply
// re-simulates on next use. Structurally broken segments are left in
// place for verify to report, never silently deleted.
//
// With dry set, GC only reports what it would remove; a dry pass is
// strictly read-only — no deletion, no directory creation.
func (s *Store) GC(cutoff time.Time, dry bool) (GCStats, error) {
	files, err := s.cellFiles()
	if err != nil {
		return GCStats{}, err
	}
	var st GCStats
	for _, path := range files {
		st.Scanned++
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		if fi.ModTime().After(cutoff) {
			st.Kept++
			continue
		}
		st.Removed++
		st.RemovedBytes += fi.Size()
		if !dry {
			os.Remove(path)
		}
	}
	readers, _ := s.segScan()
	for _, r := range readers {
		st.Scanned += len(r.footer.Entries)
		// A cell's age is when its loose original was written (footer
		// Created), not when it was packed, so freshly-compacted
		// segments of ancient cells still age out.
		old := len(r.footer.Entries) > 0
		for _, e := range r.footer.Entries {
			created, err := time.Parse(time.RFC3339, e.Created)
			if err != nil || created.After(cutoff) {
				old = false // unparseable ages count as fresh: keep
				break
			}
		}
		if !old {
			st.Kept += len(r.footer.Entries)
			continue
		}
		st.Removed += len(r.footer.Entries)
		st.RemovedBytes += r.size
		st.SegmentsRemoved++
		if !dry {
			os.Remove(r.path)
		}
	}
	if st.SegmentsRemoved > 0 && !dry {
		s.segScan() // drops the removed segments' entries and closes their files
	}
	return st, nil
}

// SchemeFootprint is one scheme's share of a store. The JSON names
// back pdstore stats -json and are pinned by a golden test: they only
// ever grow (with omitempty), never change.
type SchemeFootprint struct {
	Scheme string `json:"scheme"`
	// Cells and Bytes count the scheme's served copies and their size.
	Cells int   `json:"cells"`
	Bytes int64 `json:"bytes"`
	// Faults counts the fault-injection cells among them.
	Faults int `json:"faults"`
}

// Footprint summarises a store's on-disk contents as reads see them
// (Store.survey). JSON names as for SchemeFootprint.
type Footprint struct {
	// Cells and Bytes total the cells a read serves, one copy per
	// fingerprint across both layouts: the copy Get would return.
	Cells int   `json:"cells"`
	Bytes int64 `json:"bytes"`
	// LooseCells counts the served copies that are cell files.
	LooseCells int `json:"loose_cells"`
	// Corrupt counts every stored copy, loose or packed, that a read
	// refuses (run verify for detail).
	Corrupt int `json:"corrupt"`
	// Segments counts readable segment files; SegmentCells the served
	// copies inside them; SegmentBytes their file size.
	Segments     int   `json:"segments"`
	SegmentCells int   `json:"segment_cells"`
	SegmentBytes int64 `json:"segment_bytes"`
	// BrokenSegments counts structurally damaged segment files (run
	// verify for detail).
	BrokenSegments int `json:"broken_segments"`
	// Schemes breaks the totals down per scheme, sorted by name.
	Schemes []SchemeFootprint `json:"schemes"`
}

// StatsSchemaVersion versions the pdstore stats -json document. Bump
// only for breaking shape changes; additive growth keeps it.
const StatsSchemaVersion = 2

// StatsReport is the machine-readable form of pdstore stats: the
// store's footprint plus the document schema version and the store
// directory it describes. The embedded Footprint flattens, so the
// top-level keys are stats_schema, dir, cells, bytes, ….
type StatsReport struct {
	Schema int    `json:"stats_schema"`
	Dir    string `json:"dir"`
	Footprint
}

// VerifyReport is the outcome of a store integrity check (Store.survey).
type VerifyReport struct {
	// Cells counts the copies examined (loose files plus segment
	// records); Good counts those a read accepts.
	Cells int
	Good  int
	// Segments counts segment files examined.
	Segments int
	// Problems describes every inconsistency found: copies that fail
	// decodeCell's rule (unparseable, foreign schema, fingerprint or
	// payload mismatch), corrupt segment records, structurally damaged
	// segments and footers of another schema.
	Problems []string
}

// OK reports whether the store verified clean.
func (r VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Index lists the cells a read serves, sorted by fingerprint. Created
// is the loose file's modification time, or for a packed cell the time
// its loose original was written (from the segment footer).
func (s *Store) Index() ([]IndexEntry, error) {
	sv, err := s.survey()
	return sv.index, err
}

// Footprint reports the per-scheme footprint of the cells a read
// serves, and the copies it refuses. Compaction moves cells between
// layouts without changing them, so per-scheme cell counts are
// identical before and after a compact.
func (s *Store) Footprint() (Footprint, error) {
	sv, err := s.survey()
	return sv.foot, err
}

// Verify judges every stored copy: each loose cell file under the
// fingerprint its name gives, and each record of every segment by its
// footer checksum and then the same rule (decodeCell). Good copies are
// exactly those Get would serve. Problems are reported, not repaired:
// Get already degrades them to misses, and gc/compact clean them up.
// Segments are read through the handle's footer cache, which reopens a
// file whose identity, size or modification time changed; every record
// is re-checksummed whatever the cache holds.
func (s *Store) Verify() (VerifyReport, error) {
	sv, err := s.survey()
	return sv.verify, err
}

// survey is one judged pass over a store: Index, Footprint and Verify
// are its views.
type survey struct {
	index  []IndexEntry
	foot   Footprint
	verify VerifyReport
}

// survey judges every stored copy through the read memo in the order
// a read tries them: loose files in path order, then segment records,
// newest segment first. So a fingerprint's first passing copy is the
// one Get serves: that copy alone is listed, and counted in its layout
// and scheme. Every refused copy is corrupt and one problem, as are
// broken segments and footers of another schema.
func (s *Store) survey() (survey, error) {
	files, err := s.cellFiles()
	if err != nil {
		return survey{}, err
	}
	var sv survey
	foot, rep := &sv.foot, &sv.verify
	refused := func(problem string) {
		rep.Cells++
		foot.Corrupt++
		rep.Problems = append(rep.Problems, problem)
	}
	served := map[string]bool{}
	schemes := map[string]*SchemeFootprint{}
	// passed counts a copy a read accepts and reports whether it is the
	// one a read serves, listing and counting it if so.
	passed := func(c *Cell, size int64, created string) bool {
		rep.Cells++
		rep.Good++
		if served[c.Fingerprint] {
			return false
		}
		served[c.Fingerprint] = true
		sv.index = append(sv.index, IndexEntry{Fingerprint: c.Fingerprint, Workload: c.Workload, Scheme: c.Scheme, Created: created})
		foot.Cells++
		foot.Bytes += size
		row := schemes[c.Scheme]
		if row == nil {
			row = &SchemeFootprint{Scheme: c.Scheme}
			schemes[c.Scheme] = row
		}
		row.Cells++
		row.Bytes += size
		if c.Fault != nil {
			row.Faults++
		}
		return true
	}
	for _, path := range files {
		c, data, fi, err := s.readLoose(path)
		if err != nil {
			refused(fmt.Sprintf("%s: %v", path, err))
			continue
		}
		if passed(c, int64(len(data)), fi.ModTime().UTC().Format(time.RFC3339)) {
			foot.LooseCells++
		}
	}
	readers, broken := s.segScan()
	foot.Segments, foot.BrokenSegments = len(readers), len(broken)
	rep.Segments = len(readers) + len(broken)
	for _, err := range broken {
		rep.Problems = append(rep.Problems, err.Error())
	}
	for _, r := range readers {
		foot.SegmentBytes += r.size
		if r.footer.Schema != SchemaVersion {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: footer schema %d, engine writes %d", r.path, r.footer.Schema, SchemaVersion))
		}
		for _, e := range r.footer.Entries {
			c, _, err := s.readRecord(r, e)
			if err != nil {
				refused(err.Error())
				continue
			}
			if passed(c, e.Length, e.Created) {
				foot.SegmentCells++
			}
		}
	}
	for _, row := range schemes {
		foot.Schemes = append(foot.Schemes, *row)
	}
	sort.Slice(foot.Schemes, func(i, j int) bool { return foot.Schemes[i].Scheme < foot.Schemes[j].Scheme })
	sort.Slice(sv.index, func(i, j int) bool { return sv.index[i].Fingerprint < sv.index[j].Fingerprint })
	return sv, nil
}

// cellFiles lists every cell file under the store's tree in sorted
// (deterministic) order, skipping in-flight temp files.
func (s *Store) cellFiles() ([]string, error) {
	var out []string
	root := filepath.Join(s.dir, "cells")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") && !strings.HasPrefix(d.Name(), ".tmp-cell-") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return out, nil
}

// readLoose reads the loose cell file at path and judges it through
// the read memo under the fingerprint its file name gives. It returns
// the raw bytes too, so Merge can copy them without a second read, and
// the open file's stat, so a listing needs no second path lookup. The
// file is read to the size its stat gives: cell files are replaced by
// rename, never rewritten, and bytes read from one edited in place are
// judged like any others.
func (s *Store) readLoose(path string) (*Cell, []byte, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, nil, err
	}
	c, err := s.memo.judge(strings.TrimSuffix(filepath.Base(path), ".json"), data, sha256.Sum256(data))
	return c, data, fi, err
}

// sameDir reports whether two store roots name the same directory.
func sameDir(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return a == b
	}
	return aa == bb
}
