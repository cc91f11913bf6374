package resultstore

import (
	"encoding/json"
	"fmt"
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
// destination separately if wanted. Unreadable or
// fingerprint-inconsistent source cells, and structurally broken
// source segments, are skipped with a warning, never an error. A
// parseable source cell or segment footer carrying a different
// SchemaVersion refuses the whole merge before anything is copied: its
// store belongs to an incompatible engine, and folding it in would
// bury cells that can never hit.
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
			c, _, ok := readCell(path)
			if !ok {
				continue // counted (and warned about) during the copy pass
			}
			if c.Schema != SchemaVersion {
				return st, fmt.Errorf("resultstore: %s has schema %d, this engine writes schema %d: refusing cross-schema merge",
					path, c.Schema, SchemaVersion)
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
		if existing, _, ok := readCell(dst.cellPath(fp)); ok && existing.consistent(dst.cellPath(fp)) {
			st.Dups++
			return nil
		}
		for _, r := range dstReaders {
			if c, _, err := r.get(fp); err == nil && c != nil {
				st.Dups++
				return nil
			}
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
			c, data, ok := readCell(path)
			if !ok || !c.consistent(path) {
				st.Corrupt++
				st.Warnings = append(st.Warnings, fmt.Sprintf("skipping corrupt cell %s", path))
				continue
			}
			if err := copyCell(c.Fingerprint, data); err != nil {
				return st, err
			}
		}
		readers, broken := src.segScan()
		for _, path := range broken {
			st.Corrupt++
			st.Warnings = append(st.Warnings, fmt.Sprintf("skipping broken segment %s", path))
		}
		for _, r := range readers {
			for _, e := range r.footer.Entries {
				c, data, err := r.read(e)
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
	// Corrupt counts unreadable or inconsistent source cells skipped.
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
	// Cells and Bytes count the scheme's cell files and their size.
	Cells int   `json:"cells"`
	Bytes int64 `json:"bytes"`
	// Faults counts the fault-injection cells among them.
	Faults int `json:"faults"`
}

// Footprint summarises a store's on-disk contents. JSON names as for
// SchemeFootprint.
type Footprint struct {
	// Cells and Bytes total every readable cell across both layouts,
	// deduplicated by fingerprint (a cell present loose and packed
	// counts once).
	Cells int   `json:"cells"`
	Bytes int64 `json:"bytes"`
	// LooseCells counts cells living as individual files.
	LooseCells int `json:"loose_cells"`
	// Corrupt counts unreadable cell files.
	Corrupt int `json:"corrupt"`
	// Segments counts packed segment files; SegmentCells the records
	// inside them (net of loose shadows); SegmentBytes their file size.
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

// Footprint scans the loose cell tree and the packed segments and
// reports the per-scheme footprint. Compaction moves cells between
// layouts without changing them, so per-scheme cell counts are
// identical before and after a compact.
func (s *Store) Footprint() (Footprint, error) {
	files, err := s.cellFiles()
	if err != nil {
		return Footprint{}, err
	}
	var fp Footprint
	byScheme := map[string]*SchemeFootprint{}
	count := func(scheme string, size int64, fault bool) {
		fp.Cells++
		fp.Bytes += size
		row := byScheme[scheme]
		if row == nil {
			row = &SchemeFootprint{Scheme: scheme}
			byScheme[scheme] = row
		}
		row.Cells++
		row.Bytes += size
		if fault {
			row.Faults++
		}
	}
	seen := map[string]bool{}
	for _, path := range files {
		c, _, ok := readCell(path)
		if !ok {
			fp.Corrupt++
			continue
		}
		var size int64
		if fi, err := os.Stat(path); err == nil {
			size = fi.Size()
		}
		fp.LooseCells++
		seen[c.Fingerprint] = true
		count(c.Scheme, size, c.Fault != nil)
	}
	readers, broken := s.segScan()
	fp.BrokenSegments = len(broken)
	for _, r := range readers {
		fp.Segments++
		fp.SegmentBytes += r.size
		for _, e := range r.footer.Entries {
			if seen[e.Fingerprint] {
				continue // the loose copy already counted it
			}
			seen[e.Fingerprint] = true
			fp.SegmentCells++
			count(e.Scheme, e.Length, e.Fault)
		}
	}
	for _, row := range byScheme {
		fp.Schemes = append(fp.Schemes, *row)
	}
	sort.Slice(fp.Schemes, func(i, j int) bool { return fp.Schemes[i].Scheme < fp.Schemes[j].Scheme })
	return fp, nil
}

// VerifyReport is the outcome of a store integrity check.
type VerifyReport struct {
	// Cells counts cells examined (loose files plus segment records);
	// Good counts the consistent ones.
	Cells int
	Good  int
	// Segments counts segment files examined.
	Segments int
	// Problems describes every inconsistency found: unparseable cells,
	// fingerprint mismatches, foreign schema versions, structurally
	// damaged segments and corrupt segment records.
	Problems []string
}

// OK reports whether the store verified clean.
func (r VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Verify checks every loose cell file parses, carries this engine's
// schema version, and fingerprints consistently with its own content
// and file name; checks every segment's structure (magic, trailer,
// footer checksum) and every packed record's payload checksum, parse,
// schema and fingerprint. Problems are reported, not repaired: Get
// already degrades mismatches to misses, and gc/compact clean them up.
// Segment footers are re-read from disk here, bypassing the in-memory
// cache, so damage inflicted after a segment was first read is still
// caught.
func (s *Store) Verify() (VerifyReport, error) {
	files, err := s.cellFiles()
	if err != nil {
		return VerifyReport{}, err
	}
	var rep VerifyReport
	for _, path := range files {
		rep.Cells++
		c, _, ok := readCell(path)
		if !ok {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: unparseable", path))
			continue
		}
		switch {
		case c.Schema != SchemaVersion:
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: schema %d, engine writes %d", path, c.Schema, SchemaVersion))
		case !c.consistent(path):
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: fingerprint does not match content", path))
		default:
			rep.Good++
		}
	}
	segFiles, err := s.segmentFiles()
	if err != nil {
		return rep, err
	}
	for _, path := range segFiles {
		rep.Segments++
		r, err := openSegment(path)
		if err != nil {
			rep.Problems = append(rep.Problems, err.Error())
			continue
		}
		if r.footer.Schema != SchemaVersion {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: footer schema %d, engine writes %d", path, r.footer.Schema, SchemaVersion))
		}
		for _, e := range r.footer.Entries {
			rep.Cells++
			if _, _, err := r.read(e); err != nil {
				rep.Problems = append(rep.Problems, err.Error())
				continue
			}
			rep.Good++
		}
		r.close()
	}
	return rep, nil
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

// readCell loads one cell file, returning its raw bytes alongside the
// parsed cell so callers that re-write the file (Merge) need no second
// read; ok is false for unreadable or unparseable files.
func readCell(path string) (*Cell, []byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false
	}
	var c Cell
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, nil, false
	}
	return &c, data, true
}

// consistent reports whether the cell's embedded fingerprint matches
// both a recomputation from its identity fields and its file name —
// the content-addressing invariant Merge and Verify rely on.
func (c *Cell) consistent(path string) bool {
	want := Key{Workload: c.Workload, Scheme: c.Scheme, Config: c.Config, Fault: c.Fault}.Fingerprint()
	return c.Fingerprint == want && filepath.Base(path) == want+".json"
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
