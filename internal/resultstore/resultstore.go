// Package resultstore is a persistent, content-addressed store for
// campaign results. Each cell — one simulated (workload, config, scheme
// [, fault]) combination — is keyed by a stable fingerprint computed
// from a canonical serialization of its identity, and stored as one
// JSON file under a sharded directory tree:
//
//	<dir>/cells/<fp[:2]>/<fp>.json
//
// Compaction packs cells into segment files (segment.go). The cell
// files and segment footers are the store's only record of what it
// holds; Index lists the cells from them.
//
// Fingerprints are SHA-256 over an explicit, field-by-field rendering
// of the key (never over Go struct memory or field order), prefixed
// with the engine schema version, so cells survive process restarts
// and are shared safely between concurrent processes: writes go to a
// temp file in the target directory and are renamed into place, which
// is atomic on POSIX filesystems. A cell whose embedded schema version
// or fingerprint does not match is treated as a miss, never an error —
// bumping SchemaVersion invalidates every existing cell.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"paradet"
	"paradet/internal/obs"
)

// SchemaVersion is the engine schema version baked into every
// fingerprint and cell. Bump it whenever the canonical serialization
// below, the simulator's observable behaviour, or the cell payload
// shape changes incompatibly; old cells then simply stop hitting.
const SchemaVersion = 1

// Key identifies one campaign cell. Fingerprints cover every field.
type Key struct {
	// Workload is the workload identity (registry name).
	Workload string
	// Scheme is the simulated scheme ("protected", "unprotected",
	// "lockstep", "rmt").
	Scheme string
	// Config is the fully resolved simulator configuration. Callers
	// normalise knobs the scheme ignores (e.g. checker-side fields for
	// unprotected runs) so equivalent runs share a cell.
	Config paradet.Config
	// Fault, when non-nil, marks a fault-injection cell.
	Fault *paradet.Fault
}

// configFieldGuard pins the exact field set of paradet.Config that
// appendCanonicalConfig serializes. If paradet.Config gains, loses,
// reorders or retypes a field, this conversion stops compiling: update
// appendCanonicalConfig accordingly and bump SchemaVersion.
var _ = func(c paradet.Config) {
	_ = struct {
		MainCoreHz          uint64
		CheckerHz           uint64
		NumCheckers         int
		LogBytes            int
		EntryBytes          int
		TimeoutInstrs       uint64
		CheckpointCycles    int64
		InterruptIntervalNS uint64
		MaxInstrs           uint64
		DisableCheckers     bool
		BigCore             bool
	}(c)
}

// faultFieldGuard pins the exact field set of paradet.Fault that
// Key.Canonical serializes, like configFieldGuard does for Config: a
// new Fault field must be added to the canonical form (with a
// SchemaVersion bump) or two distinct faults would share a cell.
var _ = func(f paradet.Fault) {
	_ = struct {
		Target    paradet.FaultTarget
		Seq       uint64
		Bit       uint8
		Sticky    bool
		CheckerID int
	}(f)
}

// appendCanonicalConfig renders a Config as ordered key=value lines.
// The line set and order are part of the schema: any change here
// without a SchemaVersion bump silently aliases old and new cells,
// which is why the golden-fingerprint test pins the output.
func appendCanonicalConfig(b []byte, c paradet.Config) []byte {
	b = appendUint(b, "main_core_hz=", c.MainCoreHz)
	b = appendUint(b, "checker_hz=", c.CheckerHz)
	b = appendInt(b, "num_checkers=", int64(c.NumCheckers))
	b = appendInt(b, "log_bytes=", int64(c.LogBytes))
	b = appendInt(b, "entry_bytes=", int64(c.EntryBytes))
	b = appendUint(b, "timeout_instrs=", c.TimeoutInstrs)
	b = appendInt(b, "checkpoint_cycles=", c.CheckpointCycles)
	b = appendUint(b, "interrupt_interval_ns=", c.InterruptIntervalNS)
	b = appendUint(b, "max_instrs=", c.MaxInstrs)
	b = appendBool(b, "disable_checkers=", c.DisableCheckers)
	return appendBool(b, "big_core=", c.BigCore)
}

// appendInt, appendUint, appendBool and appendField each append one
// canonical "name=value\n" line.
func appendInt(b []byte, name string, v int64) []byte {
	return append(strconv.AppendInt(append(b, name...), v, 10), '\n')
}

func appendUint(b []byte, name string, v uint64) []byte {
	return append(strconv.AppendUint(append(b, name...), v, 10), '\n')
}

func appendBool(b []byte, name string, v bool) []byte {
	return append(strconv.AppendBool(append(b, name...), v), '\n')
}

func appendField(b []byte, name, v string) []byte {
	return append(appendCanonField(append(b, name...), v), '\n')
}

// appendCanonField renders a free-form string field (workload, scheme,
// fault target) for the canonical serialization. Names the registries
// actually produce pass through verbatim, keeping every existing
// fingerprint stable; two hardenings found by the serialization fuzz
// test cover everything else:
//
//   - names carrying newlines, quotes or backslashes are Go-quoted, so
//     an adversarial workload name cannot inject extra canonical lines
//     and alias a different key (quoted and verbatim renderings never
//     collide — a verbatim name contains no quote, a quoted rendering
//     always starts with one);
//   - invalid UTF-8 is first mapped to the Unicode replacement rune,
//     exactly as encoding/json mangles it inside the stored cell, so
//     decode(encode(cell)) recomputes the same fingerprint. Distinct
//     raw names that mangle identically share a cell by construction:
//     their encoded cells are byte-identical, a collision inherited
//     from JSON, not introduced here.
func appendCanonField(b []byte, s string) []byte {
	s = jsonValidUTF8(s)
	if strings.ContainsAny(s, "\n\r\"\\") {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

// jsonValidUTF8 rewrites s the way encoding/json's encoder does:
// every individual invalid byte becomes U+FFFD. (strings.ToValidUTF8
// is not the same function — it collapses a run of invalid bytes into
// one replacement rune, which would fingerprint differently from the
// re-decoded cell.)
func jsonValidUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
			i++
			continue
		}
		b.WriteString(s[i : i+size])
		i += size
	}
	return b.String()
}

// Canonical renders the key's full canonical serialization, the exact
// bytes the fingerprint hashes.
func (k Key) Canonical() string { return string(k.appendCanonical(nil)) }

func (k Key) appendCanonical(b []byte) []byte {
	b = appendInt(b, "schema=", SchemaVersion)
	b = appendField(b, "workload=", k.Workload)
	b = appendField(b, "scheme=", k.Scheme)
	b = appendCanonicalConfig(b, k.Config)
	if f := k.Fault; f != nil {
		b = appendField(b, "fault.target=", string(f.Target))
		b = appendUint(b, "fault.seq=", f.Seq)
		b = appendUint(b, "fault.bit=", uint64(f.Bit))
		b = appendBool(b, "fault.sticky=", f.Sticky)
		b = appendInt(b, "fault.checker_id=", int64(f.CheckerID))
	}
	return b
}

// Fingerprint returns the hex SHA-256 of the canonical serialization.
func (k Key) Fingerprint() string {
	var buf [512]byte // a registry key's canonical form fits
	sum := sha256.Sum256(k.appendCanonical(buf[:0]))
	return hex.EncodeToString(sum[:])
}

// Cell is one stored result. Exactly one of Result, Baseline and
// FaultRecord is set, matching the key's scheme and fault dimension.
type Cell struct {
	Schema      int            `json:"schema"`
	Fingerprint string         `json:"fingerprint"`
	Workload    string         `json:"workload"`
	Scheme      string         `json:"scheme"`
	Config      paradet.Config `json:"config"`
	Fault       *paradet.Fault `json:"fault,omitempty"`
	// Result holds protected/unprotected runs; Baseline holds
	// lockstep/RMT runs; FaultRecord holds fault classifications.
	Result      *paradet.Result         `json:"result,omitempty"`
	Baseline    *paradet.BaselineResult `json:"baseline_result,omitempty"`
	FaultRecord *paradet.FaultRecord    `json:"fault_record,omitempty"`

	// body is the encoding a verified decode made (encodeBody), set
	// before the cell is shared; nil on a cell no read returned.
	body []byte
}

// Body returns the cell's response body: its canonical JSON, indented
// as Put writes it, plus a newline. A cell that Get or GetFingerprint
// returned carries the body its verified decode encoded, so serving it
// encodes nothing; any other cell is encoded now, by the same function.
func (c *Cell) Body() ([]byte, error) {
	if c.body != nil {
		return c.body, nil
	}
	return encodeBody(c)
}

// IndexEntry is one cell of the store's listing (Index).
type IndexEntry struct {
	Fingerprint string `json:"fingerprint"`
	Workload    string `json:"workload"`
	Scheme      string `json:"scheme"`
	Created     string `json:"created"`
}

// Store is a campaign result store rooted at one directory. A Store
// handle is safe for concurrent use, and separate processes may share
// one directory: cell writes are atomic renames, and segments are
// immutable once linked into place.
type Store struct {
	dir string
	// segMu guards the lazily-built segment footer cache (segment.go).
	segMu sync.Mutex
	segs  map[string]*segCacheEntry
	// memo holds the read path's verified decodes (memo.go).
	memo cellMemo
}

// Open opens (creating if necessary) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// OpenExisting opens a store some campaign already wrote, creating and
// modifying nothing: strictly read-only consumers (stats, verify, and
// any -dry-run maintenance pass) must leave no trace on disk, not even
// an empty cells directory.
func OpenExisting(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty directory")
	}
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("resultstore: %s is not a directory", dir)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path reports where the key's loose cell lives (whether or not it
// exists; the cell may instead live packed in a segment).
func (s *Store) Path(k Key) string { return s.cellPath(k.Fingerprint()) }

// cellPath maps a fingerprint to its loose-cell location.
func (s *Store) cellPath(fp string) string {
	return filepath.Join(s.dir, "cells", fp[:2], fp+".json")
}

// Get loads the cell for a key: the loose cell tree first (writes
// always land there, so it is never staler than a segment), then the
// packed segment index. Missing, unreadable, schema-mismatched or
// fingerprint-mismatched cells in either layout report a miss (false),
// so a stale or corrupt store degrades to re-simulation, never to
// failure.
//
// Every Get reads the cell's bytes, but bytes equal to those of an
// earlier verified decode return that decode's cell again: the
// returned cell is shared and must not be modified.
func (s *Store) Get(k Key) (*Cell, bool) { return s.get(k.Fingerprint(), &k) }

// GetFingerprint loads a cell by fingerprint alone — the
// content-addressed read path for consumers (like the serving layer)
// that hold a fingerprint but not the key it hashes. Lookup order and
// integrity checks match Get: loose tree first, then packed segments;
// damaged or mismatched cells report a miss. A malformed fingerprint
// is simply a miss too — by construction nothing can be stored under
// it. As with Get, the returned cell is shared and must not be
// modified.
func (s *Store) GetFingerprint(fp string) (*Cell, bool) {
	if !ValidFingerprint(fp) {
		return nil, false
	}
	return s.get(fp, nil)
}

// get is the one read path behind Get and GetFingerprint. k names the
// key on the ledger's store_miss line (nil for a fingerprint lookup);
// a hit names the cell's own workload and scheme, which Put copied
// from its key.
func (s *Store) get(fp string, k *Key) (*Cell, bool) {
	if data, err := os.ReadFile(s.cellPath(fp)); err == nil {
		if c, err := s.memo.decode(fp, looseLayer, data, sha256.Sum256(data)); err == nil {
			obsReadLoose.Inc()
			if obs.Enabled() {
				obs.Emit(obs.Entry{Event: "store_hit", Workload: c.Workload, Scheme: c.Scheme, Hit: true, Detail: "loose"})
			}
			return c, true
		}
		// A damaged loose cell still falls through: its packed twin (if
		// any) is independently checksummed.
	}
	c, ok := s.segGet(fp)
	if !ok {
		obsReadMiss.Inc()
		if obs.Enabled() {
			ent := obs.Entry{Event: "store_miss", Detail: "fingerprint"}
			if k != nil {
				ent = obs.Entry{Event: "store_miss", Workload: k.Workload, Scheme: k.Scheme}
			}
			obs.Emit(ent)
		}
		return nil, false
	}
	obsReadSegment.Inc()
	if obs.Enabled() {
		obs.Emit(obs.Entry{Event: "store_hit", Workload: c.Workload, Scheme: c.Scheme, Hit: true, Detail: "segment"})
	}
	return c, true
}

// ValidFingerprint reports whether fp is a well-formed cell
// fingerprint: exactly 64 lowercase hex digits, the shape
// Key.Fingerprint produces. cellPath indexes fp[:2], so this is also
// the guard that keeps attacker-shaped fingerprints ("..", "", path
// separators) out of the on-disk layout.
func ValidFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put stores a cell under its key, filling the schema and fingerprint
// fields. The cell file is written to a temp file in the target
// directory and renamed into place, so readers in other processes only
// ever observe complete cells. Put does not fill the read memo: the
// next read decodes the new bytes.
func (s *Store) Put(k Key, c *Cell) error {
	start := time.Now()
	c.Schema = SchemaVersion
	c.Fingerprint = k.Fingerprint()
	c.Workload = k.Workload
	c.Scheme = k.Scheme
	c.Config = k.Config
	c.Fault = k.Fault

	data, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return fmt.Errorf("resultstore: marshal cell: %w", err)
	}
	if err := writeFileAtomic(s.Path(k), data); err != nil {
		return err
	}
	elapsed := time.Since(start)
	obsWrites.Inc()
	obsWriteSecs.Observe(elapsed.Seconds())
	if obs.Enabled() {
		obs.Emit(obs.Entry{Event: "store_write", Workload: k.Workload, Scheme: k.Scheme, DurMS: elapsed.Milliseconds()})
	}
	return nil
}

// writeFileAtomic writes data to a temp file in path's directory and
// renames it into place, so concurrent readers only ever observe
// complete files. It creates the directory as needed.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-cell-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// Index lists every cell the store holds, sorted by fingerprint: each
// readable loose cell, then each packed segment record that no loose
// cell shadows. Created is the loose file's modification time, or for a
// packed cell the time its loose original was written (from the
// segment footer).
func (s *Store) Index() ([]IndexEntry, error) {
	files, err := s.cellFiles()
	if err != nil {
		return nil, err
	}
	byFP := map[string]IndexEntry{}
	for _, path := range files {
		// Only the identity fields are decoded; an unparseable file is
		// skipped.
		var id struct{ Fingerprint, Workload, Scheme string }
		if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &id) != nil {
			continue
		}
		created := ""
		if fi, err := os.Stat(path); err == nil {
			created = fi.ModTime().UTC().Format(time.RFC3339)
		}
		byFP[id.Fingerprint] = IndexEntry{Fingerprint: id.Fingerprint, Workload: id.Workload, Scheme: id.Scheme, Created: created}
	}
	readers, _ := s.segScan()
	for _, r := range readers {
		for _, e := range r.footer.Entries {
			if _, ok := byFP[e.Fingerprint]; !ok {
				byFP[e.Fingerprint] = IndexEntry{Fingerprint: e.Fingerprint, Workload: e.Workload, Scheme: e.Scheme, Created: e.Created}
			}
		}
	}
	out := make([]IndexEntry, 0, len(byFP))
	for _, e := range byFP {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out, nil
}
