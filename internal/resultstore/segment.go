// Packed segment layer. A segment file batches many cold cells into
// one append-only file, so paper-scale stores (tens of thousands of
// cells) stop being one-file-per-cell trees — which get slow on
// network filesystems — without giving up content addressing:
//
//	<dir>/segments/<seq>.seg
//
//	magic[8]  "pdsegv1\n"
//	record*   uint32 BE payload length || payload
//	          (payload = the cell's loose-file JSON bytes, verbatim)
//	footer    JSON segFooter: schema, count, entries[{fingerprint,
//	          offset, length, sha256, workload, scheme, fault, created}]
//	trailer   uint32 BE footer length || sha256(footer) || "pdsegidx"
//
// Segments are immutable once published: Compact writes a temp file in
// the segments directory, fsyncs it, links it into place under the
// next sequence number (link fails instead of clobbering a concurrent
// compactor's segment), re-reads and fully verifies it, and only then
// deletes the loose cells it packed. Writes always land as loose
// cells — the segment layer is read-only for live sweeps — so
// compaction never races a running campaign: a racing Put simply
// recreates a loose cell that shadows (equals) the packed record.
//
// Every record is covered twice: the footer carries a SHA-256 of the
// exact payload bytes (a flipped byte anywhere in a record reads as a
// miss, never as wrong data), and the footer itself is covered by the
// trailer checksum (a damaged index fails the whole segment closed).
package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	segDirName      = "segments"
	segMagic        = "pdsegv1\n"
	segTrailerMagic = "pdsegidx"
	// segTrailerLen is the fixed byte count at the end of every
	// segment: uint32 footer length, sha256 of the footer, magic.
	segTrailerLen = 4 + sha256.Size + len(segTrailerMagic)
)

// segEntry locates and authenticates one record inside a segment.
type segEntry struct {
	Fingerprint string `json:"fingerprint"`
	// Offset and Length delimit the payload bytes (the record's 4-byte
	// length prefix sits at Offset-4).
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
	// SHA256 is the hex SHA-256 of the payload bytes.
	SHA256 string `json:"sha256"`
	// sum is SHA256 decoded by openSegment, and sumOK reports that it
	// was 64 lowercase hex digits (an entry with any other digest
	// never matches its record).
	sum   [sha256.Size]byte
	sumOK bool
	// Workload, Scheme and Fault mirror the cell's identity so stats
	// and Index need not read the record itself.
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Fault    bool   `json:"fault,omitempty"`
	// Created is the packed loose cell's modification time (RFC3339),
	// preserved so GC can age segment cells like loose ones.
	Created string `json:"created,omitempty"`
}

// segFooter is the per-segment index, serialized as JSON between the
// last record and the trailer.
type segFooter struct {
	Schema  int        `json:"schema"`
	Count   int        `json:"count"`
	Entries []segEntry `json:"entries"`
}

// segDir reports the store's segment directory (which may not exist:
// stores that were never compacted have no segments subtree at all, so
// they round-trip byte-identically through this engine).
func (s *Store) segDir() string { return filepath.Join(s.dir, segDirName) }

// segReader is one parsed, checksum-verified segment footer and the
// open file it was parsed from. Record payloads are read (and
// re-verified) on demand through that file.
type segReader struct {
	path   string
	f      *os.File
	size   int64
	footer segFooter
	byFP   map[string]int // fingerprint -> Entries index
}

// openSegment opens a segment and verifies its structure: magic,
// trailer, footer checksum, and entry bounds. Record payloads are not
// read here; read verifies each on access. A structurally damaged
// segment (truncated, bad footer checksum, missing trailer) fails
// loudly — the whole file is unusable, and every cell in it degrades
// to re-simulation. The reader keeps the file open until close.
func openSegment(path string) (_ *segReader, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	size := fi.Size()
	if size < int64(len(segMagic)+segTrailerLen) {
		return nil, fmt.Errorf("segment %s: truncated (%d bytes)", path, size)
	}
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != segMagic {
		return nil, fmt.Errorf("segment %s: bad magic", path)
	}
	trailer := make([]byte, segTrailerLen)
	if _, err := f.ReadAt(trailer, size-int64(segTrailerLen)); err != nil {
		return nil, fmt.Errorf("segment %s: trailer: %w", path, err)
	}
	if string(trailer[4+sha256.Size:]) != segTrailerMagic {
		return nil, fmt.Errorf("segment %s: missing footer trailer", path)
	}
	footerLen := int64(binary.BigEndian.Uint32(trailer[:4]))
	footerOff := size - int64(segTrailerLen) - footerLen
	if footerLen == 0 || footerOff < int64(len(segMagic)) {
		return nil, fmt.Errorf("segment %s: footer length %d out of bounds", path, footerLen)
	}
	footerBytes := make([]byte, footerLen)
	if _, err := f.ReadAt(footerBytes, footerOff); err != nil {
		return nil, fmt.Errorf("segment %s: footer: %w", path, err)
	}
	sum := sha256.Sum256(footerBytes)
	if hex.EncodeToString(sum[:]) != hex.EncodeToString(trailer[4:4+sha256.Size]) {
		return nil, fmt.Errorf("segment %s: footer checksum mismatch", path)
	}
	var footer segFooter
	if err := json.Unmarshal(footerBytes, &footer); err != nil {
		return nil, fmt.Errorf("segment %s: footer: %w", path, err)
	}
	if footer.Count != len(footer.Entries) {
		return nil, fmt.Errorf("segment %s: footer count %d != %d entries", path, footer.Count, len(footer.Entries))
	}
	r := &segReader{path: path, f: f, size: size, footer: footer,
		byFP: make(map[string]int, len(footer.Entries))}
	for i := range footer.Entries {
		e := &footer.Entries[i]
		// Compare without adding Offset+Length: both are
		// attacker-controlled and the sum can wrap int64, which would
		// slip a near-MaxInt64 Length past the check and panic the
		// make([]byte, Length) in read.
		if e.Offset < int64(len(segMagic))+4 || e.Length <= 0 ||
			e.Length > footerOff || e.Offset > footerOff-e.Length {
			return nil, fmt.Errorf("segment %s: entry %s out of bounds", path, e.Fingerprint)
		}
		// A digest has a fingerprint's shape: 64 lowercase hex digits.
		if ValidFingerprint(e.SHA256) {
			_, err := hex.Decode(e.sum[:], []byte(e.SHA256))
			e.sumOK = err == nil
		}
		r.byFP[e.Fingerprint] = i
	}
	return r, nil
}

// close closes the reader's file. A read racing it fails, and so
// misses.
func (r *segReader) close() { r.f.Close() }

// read loads and authenticates one record: payload checksum against
// the footer, then decodeCell's JSON parse, schema, and the
// content-addressing invariant (embedded fingerprint == footer
// fingerprint == recomputation from the identity fields). Any failure
// is an error — callers on the read path treat it as a miss, so
// corruption degrades to re-simulation and never to wrong data.
func (r *segReader) read(e segEntry) (*Cell, []byte, error) {
	data, _, err := r.payload(e)
	if err != nil {
		return nil, nil, err
	}
	c, err := decodeCell(data, e.Fingerprint, packedLayer)
	if err != nil {
		return nil, nil, fmt.Errorf("segment %s: record %s: %w", r.path, e.Fingerprint, err)
	}
	return c, data, nil
}

// payload reads one record's bytes through the reader's open file and
// checks them against the footer's checksum, returning the bytes and
// their SHA-256.
func (r *segReader) payload(e segEntry) ([]byte, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	data := make([]byte, e.Length)
	if _, err := r.f.ReadAt(data, e.Offset); err != nil {
		return nil, sum, fmt.Errorf("segment %s: record %s: %w", r.path, e.Fingerprint, err)
	}
	sum = sha256.Sum256(data)
	if !e.sumOK || sum != e.sum {
		return nil, sum, fmt.Errorf("segment %s: record %s: payload checksum mismatch", r.path, e.Fingerprint)
	}
	return data, sum, nil
}

// get reads the record for a fingerprint, reporting (nil, nil, nil)
// when the segment simply does not hold it.
func (r *segReader) get(fp string) (*Cell, []byte, error) {
	i, ok := r.byFP[fp]
	if !ok {
		return nil, nil, nil
	}
	return r.read(r.footer.Entries[i])
}

// segmentFiles lists the store's segment files in sorted order,
// skipping in-flight temp files. A missing segments directory is an
// empty list, not an error.
func (s *Store) segmentFiles() ([]string, error) {
	entries, err := os.ReadDir(s.segDir())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".seg") || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		out = append(out, filepath.Join(s.segDir(), e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// segScan returns verified readers for the store's current segments,
// newest (highest sequence) first, plus the paths of structurally
// broken segments. Footers are cached per file — broken files too —
// with the reader's open file, and reopened whenever the path names
// another file or the file's size or mtime changes (a GC'd sequence
// number could in principle be reused by a later compaction, and a
// once-broken path can be replaced by a healthy segment). An entry
// whose segment left the listing is dropped, and a dropped or replaced
// entry's file is closed. Record reads re-verify their checksum every
// time regardless, so a stale reader, or one closed under a racing
// read, can at worst miss, never serve wrong data.
func (s *Store) segScan() (readers []*segReader, broken []string) {
	paths, err := s.segmentFiles()
	if err != nil {
		return nil, nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.segs == nil {
		s.segs = make(map[string]*segCacheEntry)
	}
	for path, ce := range s.segs {
		if _, listed := slices.BinarySearch(paths, path); !listed {
			s.dropSegment(path, ce)
		}
	}
	for i := len(paths) - 1; i >= 0; i-- { // newest first
		path := paths[i]
		fi, err := os.Stat(path)
		ce := s.segs[path]
		if ce != nil && (err != nil || !ce.current(fi)) {
			s.dropSegment(path, ce) // raced away or replaced
			ce = nil
		}
		if err != nil {
			continue
		}
		if ce == nil {
			r, _ := openSegment(path) // nil reader = broken, cached as such
			ce = &segCacheEntry{fi: fi, r: r}
			s.segs[path] = ce
		}
		if ce.r == nil {
			broken = append(broken, path)
			continue
		}
		readers = append(readers, ce.r)
	}
	return readers, broken
}

// segCacheEntry is one cached segment-footer parse, with the stat its
// path had just before the parse. A nil reader records a structurally
// broken file.
type segCacheEntry struct {
	fi os.FileInfo
	r  *segReader
}

// current reports whether fi, a fresh stat of the entry's path, names
// the same unchanged file.
func (ce *segCacheEntry) current(fi os.FileInfo) bool {
	return os.SameFile(ce.fi, fi) && fi.Size() == ce.fi.Size() && fi.ModTime().Equal(ce.fi.ModTime())
}

// dropSegment removes a cache entry and closes its reader's file. The
// caller holds segMu.
func (s *Store) dropSegment(path string, ce *segCacheEntry) {
	delete(s.segs, path)
	if ce.r != nil {
		ce.r.close()
	}
}

// segGet serves one fingerprint from the segment layer, through the
// read memo: every record read is checked against its footer
// checksum, and only its decode may be reused. Damaged records and
// broken segments are misses.
func (s *Store) segGet(fp string) (*Cell, bool) {
	readers, _ := s.segScan()
	for _, r := range readers {
		i, ok := r.byFP[fp]
		if !ok {
			continue
		}
		data, sum, err := r.payload(r.footer.Entries[i])
		if err != nil {
			continue
		}
		if c, err := s.memo.decode(fp, packedLayer, data, sum); err == nil {
			return c, true
		}
	}
	return nil, false
}

// segSource is one loose cell queued for packing.
type segSource struct {
	fp      string
	data    []byte
	cell    *Cell
	created time.Time
}

// writeSegment publishes one new segment holding cells, in order. The
// bytes are staged in a temp file (fsynced before publication), then
// hard-linked into place under the next free sequence number — link,
// unlike rename, fails on an existing target, so two concurrent
// compactions can never clobber each other's segment. The directory
// is fsynced afterwards (best effort) so the new name survives a
// crash.
func writeSegment(segDir string, cells []segSource) (string, int64, error) {
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		return "", 0, fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(segDir, ".tmp-seg-*")
	if err != nil {
		return "", 0, fmt.Errorf("resultstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // drops the staging name; the linked segment survives
	footer := segFooter{Schema: SchemaVersion, Count: len(cells)}
	var lenBuf [4]byte
	off := int64(0)
	write := func(b []byte) {
		if err == nil {
			_, err = tmp.Write(b)
			off += int64(len(b))
		}
	}
	write([]byte(segMagic))
	for _, src := range cells {
		if int64(len(src.data)) > 1<<31-1 {
			err = fmt.Errorf("cell %s: record too large", src.fp)
			break
		}
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(src.data)))
		write(lenBuf[:])
		payloadOff := off
		write(src.data)
		sum := sha256.Sum256(src.data)
		footer.Entries = append(footer.Entries, segEntry{
			Fingerprint: src.fp,
			Offset:      payloadOff,
			Length:      int64(len(src.data)),
			SHA256:      hex.EncodeToString(sum[:]),
			Workload:    src.cell.Workload,
			Scheme:      src.cell.Scheme,
			Fault:       src.cell.Fault != nil,
			Created:     src.created.UTC().Format(time.RFC3339),
		})
	}
	footerBytes, merr := json.Marshal(footer)
	if err == nil {
		err = merr
	}
	footerSum := sha256.Sum256(footerBytes)
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(footerBytes)))
	write(footerBytes)
	write(lenBuf[:])
	write(footerSum[:])
	write([]byte(segTrailerMagic))
	if err == nil {
		err = tmp.Sync() // the publish contract: durable before visible
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", 0, fmt.Errorf("resultstore: write segment: %w", err)
	}

	seq, err := nextSegSeq(segDir)
	if err != nil {
		return "", 0, err
	}
	var target string
	for ; ; seq++ {
		target = filepath.Join(segDir, fmt.Sprintf("%08d.seg", seq))
		err = os.Link(tmp.Name(), target)
		if err == nil {
			break
		}
		if !os.IsExist(err) {
			return "", 0, fmt.Errorf("resultstore: publish segment: %w", err)
		}
	}
	syncDir(segDir)
	return target, off, nil
}

// nextSegSeq returns one past the highest existing segment sequence
// number (sequences start at 1).
func nextSegSeq(segDir string) (int, error) {
	entries, err := os.ReadDir(segDir)
	if err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	max := 0
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".seg")
		if name == e.Name() {
			continue
		}
		if n, err := strconv.Atoi(name); err == nil && n > max {
			max = n
		}
	}
	return max + 1, nil
}

// syncDir fsyncs a directory so a just-published name survives a
// crash. Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
