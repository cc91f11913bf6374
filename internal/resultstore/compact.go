package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"paradet/internal/obs"
)

// CompactOptions tune one compaction pass.
type CompactOptions struct {
	// OlderThan, when non-zero, packs only cells whose file
	// modification time predates it — the "cold" cells — leaving hot
	// cells loose for cheap deletion and rewriting. Zero packs every
	// loose cell.
	OlderThan time.Time
	// DryRun reports what a compaction would do without writing (or
	// deleting, or creating) anything at all.
	DryRun bool
}

// CompactStats reports what a compaction did (or, dry, would do).
type CompactStats struct {
	// Loose is the number of loose cell files examined.
	Loose int
	// Packed counts cells written into the new segment.
	Packed int
	// Dups counts loose cells already durable in an existing segment;
	// their loose copies are removed without repacking.
	Dups int
	// Hot counts cells newer than the cutoff, left loose.
	Hot int
	// Corrupt counts loose cells that are unreadable or fail
	// decodeCell's rule, left in place for verify/gc to deal with.
	Corrupt int
	// Removed counts loose files deleted after the segment verified.
	Removed int
	// Segment is the published segment file ("" if nothing was packed).
	Segment string
	// SegmentBytes is the published segment's size.
	SegmentBytes int64
}

func (st CompactStats) String() string {
	if st.Segment != "" {
		return fmt.Sprintf("packed %d cell(s) into %s (%.1f KiB), %d duplicate, %d hot, %d corrupt left loose, %d loose file(s) removed",
			st.Packed, filepath.Base(st.Segment), float64(st.SegmentBytes)/1024, st.Dups, st.Hot, st.Corrupt, st.Removed)
	}
	return fmt.Sprintf("packed 0 cells, %d duplicate, %d hot, %d corrupt left loose, %d loose file(s) removed",
		st.Dups, st.Hot, st.Corrupt, st.Removed)
}

// Compact batches cold loose cells into one new packed segment file
// and deletes their loose copies, shrinking the one-file-per-cell tree
// that gets slow on network filesystems at paper scale. Reads fall
// through loose cells to segments transparently, and writes always
// land loose, so compaction is safe to run while sweeps are live:
//
//   - The segment is staged in a temp file, fsynced, and linked into
//     place under a fresh sequence number; a concurrent compaction can
//     never clobber it.
//   - The published segment is re-opened and every record re-verified
//     (footer checksum plus per-record SHA-256) before a single loose
//     cell is deleted, so an interrupted or failed compaction leaves a
//     store that still serves every cell from the loose tree.
//   - A loose cell written (by a racing sweep) after the scan simply
//     stays loose until the next compaction.
//
// Loose cells whose fingerprint an existing segment already serves are
// deleted without repacking. Corrupt loose cells are never packed and
// never deleted. DryRun reports the same accounting while guaranteeing
// the store is not modified in any way.
func (s *Store) Compact(opts CompactOptions) (CompactStats, error) {
	start := time.Now()
	var st CompactStats
	files, err := s.cellFiles()
	if err != nil {
		return st, err
	}
	// Snapshot the segment readers once: a per-cell directory rescan
	// would make compaction O(cells x segments) in filesystem calls on
	// exactly the network filesystems it exists to relieve. firstRecord
	// still read-verifies the record before the loose copy may be
	// deleted.
	readers, _ := s.segScan()
	var pack []segSource
	var packPaths, dupPaths []string
	for _, path := range files {
		st.Loose++
		fi, err := os.Stat(path)
		if err != nil {
			continue // raced away (concurrent gc/compact); nothing to pack
		}
		if !opts.OlderThan.IsZero() && !fi.ModTime().Before(opts.OlderThan) {
			st.Hot++
			continue
		}
		c, data, _, err := s.readLoose(path)
		if err != nil {
			st.Corrupt++
			continue
		}
		if _, ok := s.firstRecord(readers, c.Fingerprint); ok {
			st.Dups++
			dupPaths = append(dupPaths, path)
			continue
		}
		pack = append(pack, segSource{fp: c.Fingerprint, data: data, cell: c, created: fi.ModTime()})
		packPaths = append(packPaths, path)
	}
	st.Packed = len(pack)
	if opts.DryRun {
		return st, nil
	}

	if len(pack) > 0 {
		segPath, size, err := writeSegment(s.segDir(), pack)
		if err != nil {
			return st, err
		}
		// Verify the published segment end to end before deleting any
		// loose cell: this read-back is the only proof the bytes that
		// reached the disk are the bytes we meant.
		r, err := openSegment(segPath)
		if err == nil {
			for _, e := range r.footer.Entries {
				if _, _, rerr := s.readRecord(r, e); rerr != nil {
					err = rerr
					break
				}
			}
			r.close()
		}
		if err != nil {
			os.Remove(segPath)
			return st, fmt.Errorf("resultstore: segment failed post-publish verification, loose cells kept: %w", err)
		}
		st.Segment, st.SegmentBytes = segPath, size
	}

	for _, path := range append(packPaths, dupPaths...) {
		if os.Remove(path) == nil {
			st.Removed++
		}
	}
	elapsed := time.Since(start)
	obsCompactSecs.Observe(elapsed.Seconds())
	obsCompactCells.Add(uint64(st.Packed))
	if obs.Enabled() {
		obs.Emit(obs.Entry{Event: "compact", Count: st.Packed, DurMS: elapsed.Milliseconds(), Detail: filepath.Base(st.Segment)})
	}
	return st, nil
}
