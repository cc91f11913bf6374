package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"paradet"
)

// fuzzKey assembles a Key from fuzzer-chosen primitives. Nothing is
// validated or clamped: the store must fingerprint any key injectively,
// including adversarial workload names.
func fuzzKey(workload, scheme string,
	mainHz, checkerHz, timeoutInstrs, interruptNS, maxInstrs, seq uint64,
	numCheckers, logBytes, entryBytes, checkerID, bit int,
	checkpointCycles int64,
	disable, big, hasFault, sticky bool,
	target string) Key {
	k := Key{
		Workload: workload,
		Scheme:   scheme,
		Config: paradet.Config{
			MainCoreHz:          mainHz,
			CheckerHz:           checkerHz,
			NumCheckers:         numCheckers,
			LogBytes:            logBytes,
			EntryBytes:          entryBytes,
			TimeoutInstrs:       timeoutInstrs,
			CheckpointCycles:    checkpointCycles,
			InterruptIntervalNS: interruptNS,
			MaxInstrs:           maxInstrs,
			DisableCheckers:     disable,
			BigCore:             big,
		},
	}
	if hasFault {
		k.Fault = &paradet.Fault{
			Target:    paradet.FaultTarget(target),
			Seq:       seq,
			Bit:       uint8(bit),
			Sticky:    sticky,
			CheckerID: checkerID,
		}
	}
	return k
}

// parseCanonicalField undoes canonField: quoted renderings unquote,
// verbatim renderings pass through.
func parseCanonicalField(t *testing.T, s string) string {
	if strings.HasPrefix(s, `"`) {
		out, err := strconv.Unquote(s)
		if err != nil {
			t.Fatalf("canonical field %q does not unquote: %v", s, err)
		}
		return out
	}
	return s
}

// FuzzCellRoundTrip is the satellite serialization fuzz target. For an
// arbitrary key it asserts:
//
//   - decode(encode(cell)) round-trips: the JSON a Put writes, parsed
//     back, recomputes the identical fingerprint from its identity
//     fields (the invariant Merge, Verify and segments all lean on);
//   - fingerprints are order-insensitive to map-like fields: the same
//     JSON re-rendered through a Go map (which re-orders keys) still
//     decodes to the same fingerprint — field order on disk is
//     irrelevant;
//   - the canonical serialization is injective per field: every
//     free-form string survives a parse of the canonical text, so no
//     adversarial workload name can smuggle extra canonical lines and
//     alias a different key.
func FuzzCellRoundTrip(f *testing.F) {
	f.Add("stream", "protected",
		uint64(1_000_000_000), uint64(250_000_000), uint64(0), uint64(0), uint64(10000), uint64(0),
		12, 2048, 16, 0, 0, int64(0),
		false, false, false, false, "")
	f.Add("bitcount", "protected",
		uint64(2_000_000_000), uint64(500_000_000), uint64(5000), uint64(100), uint64(4000), uint64(40),
		8, 4096, 16, 2, 5, int64(1000),
		false, true, true, true, "dest-reg")
	f.Add("evil\nscheme=unprotected", "protected",
		uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6),
		1, 2, 3, 4, 5, int64(-1),
		true, false, true, false, "store\"value")
	f.Fuzz(func(t *testing.T, workload, scheme string,
		mainHz, checkerHz, timeoutInstrs, interruptNS, maxInstrs, seq uint64,
		numCheckers, logBytes, entryBytes, checkerID, bit int,
		checkpointCycles int64,
		disable, big, hasFault, sticky bool,
		target string) {
		k := fuzzKey(workload, scheme, mainHz, checkerHz, timeoutInstrs, interruptNS, maxInstrs, seq,
			numCheckers, logBytes, entryBytes, checkerID, bit, checkpointCycles,
			disable, big, hasFault, sticky, target)
		fp := k.Fingerprint()

		// The canonical form has a fixed line count; an input that
		// changed it found an injection hole.
		wantLines := 14
		if hasFault {
			wantLines = 19
		}
		canon := k.Canonical()
		if got := strings.Count(canon, "\n"); got != wantLines {
			t.Fatalf("canonical form has %d lines, want %d:\n%s", got, wantLines, canon)
		}
		// Injectivity: the free-form fields survive a parse of the
		// canonical text, up to the UTF-8 canonicalisation JSON imposes
		// anyway (invalid bytes become the replacement rune before
		// fingerprinting, matching how the stored cell re-decodes).
		lines := strings.Split(canon, "\n")
		field := func(prefix string) string {
			for _, l := range lines {
				if v, ok := strings.CutPrefix(l, prefix); ok {
					return parseCanonicalField(t, v)
				}
			}
			t.Fatalf("canonical form missing %q:\n%s", prefix, canon)
			return ""
		}
		utf8Canon := jsonValidUTF8
		if got := field("workload="); got != utf8Canon(workload) {
			t.Fatalf("workload does not survive canonicalisation: %q -> %q", workload, got)
		}
		if got := field("scheme="); got != utf8Canon(scheme) {
			t.Fatalf("scheme does not survive canonicalisation: %q -> %q", scheme, got)
		}
		if hasFault {
			if got := field("fault.target="); got != utf8Canon(target) {
				t.Fatalf("fault target does not survive canonicalisation: %q -> %q", target, got)
			}
		}

		// decode(encode(cell)) round-trip through the exact bytes Put
		// writes.
		cell := &Cell{
			Schema:      SchemaVersion,
			Fingerprint: fp,
			Workload:    k.Workload,
			Scheme:      k.Scheme,
			Config:      k.Config,
			Fault:       k.Fault,
			Result:      &paradet.Result{Workload: k.Workload, Instructions: 7},
		}
		data, err := json.MarshalIndent(cell, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		var back Cell
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		rk := Key{Workload: back.Workload, Scheme: back.Scheme, Config: back.Config, Fault: back.Fault}
		if rk.Fingerprint() != fp {
			t.Fatalf("fingerprint changed across encode/decode:\n%s\nvs\n%s", k.Canonical(), rk.Canonical())
		}

		// Order-insensitivity: re-render the JSON through a map, which
		// sorts keys differently from the struct's field order. JSON
		// numbers only survive a float64 detour below 2^53, so skip the
		// reorder leg (not the whole case) beyond that.
		const maxExact = uint64(1) << 53
		exact := mainHz < maxExact && checkerHz < maxExact && timeoutInstrs < maxExact &&
			interruptNS < maxExact && maxInstrs < maxExact && seq < maxExact &&
			checkpointCycles < int64(maxExact) && checkpointCycles > -int64(maxExact)
		if exact {
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			reordered, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			var back2 Cell
			if err := json.Unmarshal(reordered, &back2); err != nil {
				t.Fatal(err)
			}
			rk2 := Key{Workload: back2.Workload, Scheme: back2.Scheme, Config: back2.Config, Fault: back2.Fault}
			if rk2.Fingerprint() != fp {
				t.Fatalf("fingerprint is sensitive to JSON field order:\n%s", reordered)
			}
		}
	})
}

// FuzzSegmentOpen feeds arbitrary bytes to the segment reader: it must
// never panic, never over-allocate from attacker-controlled lengths,
// and any record it does serve must satisfy every integrity invariant
// (a fuzzed file that forges all the checksums is still only able to
// serve internally-consistent cells). Each input's trailer is re-signed
// first (resignTrailer): a mutator cannot forge SHA-256, so without it
// every change to the footer would stop at the footer checksum and the
// footer parse and bounds checks behind it would never run.
func FuzzSegmentOpen(f *testing.F) {
	// Seed with a real two-record segment plus characteristic damage.
	seedDir := f.TempDir()
	mk := func(workload string, instrs uint64) segSource {
		cfg := paradet.DefaultConfig()
		cfg.MaxInstrs = instrs
		k := Key{Workload: workload, Scheme: "protected", Config: cfg}
		c := &Cell{Schema: SchemaVersion, Fingerprint: k.Fingerprint(),
			Workload: k.Workload, Scheme: k.Scheme, Config: k.Config,
			Result: &paradet.Result{Workload: workload, Instructions: instrs}}
		data, err := json.MarshalIndent(c, "", " ")
		if err != nil {
			f.Fatal(err)
		}
		return segSource{fp: c.Fingerprint, data: data, cell: c, created: time.Unix(0, 0)}
	}
	segPath, _, err := writeSegment(seedDir, []segSource{mk("stream", 1000), mk("bitcount", 2000)})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(segPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(segMagic)+6] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		path := filepath.Join(t.TempDir(), "00000001.seg")
		if err := os.WriteFile(path, resignTrailer(data), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openSegment(path)
		if err != nil {
			return // rejected closed: exactly what corrupt input deserves
		}
		defer r.close()
		var s Store // an empty memo: every record is judged afresh
		for _, e := range r.footer.Entries {
			c, payload, err := s.readRecord(r, e)
			if err != nil {
				continue
			}
			// A record the reader serves must be internally consistent,
			// whatever the file claimed.
			sum := sha256.Sum256(payload)
			if hex.EncodeToString(sum[:]) != e.SHA256 {
				t.Fatal("read served a record whose payload hash mismatches the footer")
			}
			want := Key{Workload: c.Workload, Scheme: c.Scheme, Config: c.Config, Fault: c.Fault}.Fingerprint()
			if c.Fingerprint != want || c.Fingerprint != e.Fingerprint {
				t.Fatal("read served a record violating content addressing")
			}
			if c.Schema != SchemaVersion {
				t.Fatal("read served a foreign-schema record")
			}
			if !c.payloadMatchesKey() {
				t.Fatal("read served a record whose payload does not match its key")
			}
		}
	})
}

// resignTrailer returns data with the trailer's footer checksum
// recomputed over the footer bytes the trailer's length names, as
// resignSegment does for a rewritten footer. Data too short for a
// trailer, or naming a footer out of bounds, is returned unchanged.
func resignTrailer(data []byte) []byte {
	if len(data) < len(segMagic)+segTrailerLen {
		return data
	}
	trailer := len(data) - segTrailerLen
	footerLen := int(binary.BigEndian.Uint32(data[trailer:]))
	if footerLen > trailer-len(segMagic) {
		return data
	}
	out := append([]byte(nil), data...)
	sum := sha256.Sum256(out[trailer-footerLen : trailer])
	copy(out[trailer+4:], sum[:])
	return out
}

// canonicalFmt is the fmt-based rendering Key.Canonical replaced,
// kept as the reference it must match byte for byte.
func canonicalFmt(k Key) string {
	field := func(s string) string {
		s = jsonValidUTF8(s)
		if strings.ContainsAny(s, "\n\r\"\\") {
			return strconv.Quote(s)
		}
		return s
	}
	var b strings.Builder
	c := k.Config
	fmt.Fprintf(&b, "schema=%d\n", SchemaVersion)
	fmt.Fprintf(&b, "workload=%s\n", field(k.Workload))
	fmt.Fprintf(&b, "scheme=%s\n", field(k.Scheme))
	fmt.Fprintf(&b, "main_core_hz=%d\n", c.MainCoreHz)
	fmt.Fprintf(&b, "checker_hz=%d\n", c.CheckerHz)
	fmt.Fprintf(&b, "num_checkers=%d\n", c.NumCheckers)
	fmt.Fprintf(&b, "log_bytes=%d\n", c.LogBytes)
	fmt.Fprintf(&b, "entry_bytes=%d\n", c.EntryBytes)
	fmt.Fprintf(&b, "timeout_instrs=%d\n", c.TimeoutInstrs)
	fmt.Fprintf(&b, "checkpoint_cycles=%d\n", c.CheckpointCycles)
	fmt.Fprintf(&b, "interrupt_interval_ns=%d\n", c.InterruptIntervalNS)
	fmt.Fprintf(&b, "max_instrs=%d\n", c.MaxInstrs)
	fmt.Fprintf(&b, "disable_checkers=%t\n", c.DisableCheckers)
	fmt.Fprintf(&b, "big_core=%t\n", c.BigCore)
	if f := k.Fault; f != nil {
		fmt.Fprintf(&b, "fault.target=%s\n", field(string(f.Target)))
		fmt.Fprintf(&b, "fault.seq=%d\n", f.Seq)
		fmt.Fprintf(&b, "fault.bit=%d\n", f.Bit)
		fmt.Fprintf(&b, "fault.sticky=%t\n", f.Sticky)
		fmt.Fprintf(&b, "fault.checker_id=%d\n", f.CheckerID)
	}
	return b.String()
}

// readFuzzCorpus parses the "go test fuzz v1" files of a corpus
// directory into argument lists.
func readFuzzCorpus(t *testing.T, dir string) [][]any {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]any
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a fuzz corpus file", path)
		}
		var args []any
		for _, l := range lines[1:] {
			typ, lit, ok := strings.Cut(strings.TrimSuffix(l, ")"), "(")
			var v any
			switch typ {
			case "string":
				v, err = strconv.Unquote(lit)
			case "uint64":
				v, err = strconv.ParseUint(lit, 10, 64)
			case "int64":
				v, err = strconv.ParseInt(lit, 10, 64)
			case "int":
				v, err = strconv.Atoi(lit)
			case "bool":
				v, err = strconv.ParseBool(lit)
			default:
				ok = false
			}
			if !ok || err != nil {
				t.Fatalf("%s: cannot parse %q: %v", path, l, err)
			}
			args = append(args, v)
		}
		out = append(out, args)
	}
	return out
}

// cellRoundTripKeys returns the keys of FuzzCellRoundTrip's seeds and
// corpus.
func cellRoundTripKeys(t *testing.T) []Key {
	t.Helper()
	keys := []Key{ // FuzzCellRoundTrip's seeds
		fuzzKey("stream", "protected", 1_000_000_000, 250_000_000, 0, 0, 10000, 0,
			12, 2048, 16, 0, 0, 0, false, false, false, false, ""),
		fuzzKey("bitcount", "protected", 2_000_000_000, 500_000_000, 5000, 100, 4000, 40,
			8, 4096, 16, 2, 5, 1000, false, true, true, true, "dest-reg"),
		fuzzKey("evil\nscheme=unprotected", "protected", 1, 2, 3, 4, 5, 6,
			1, 2, 3, 4, 5, -1, true, false, true, false, "store\"value"),
	}
	corpus := readFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzCellRoundTrip"))
	if len(corpus) == 0 {
		t.Fatal("the FuzzCellRoundTrip corpus is missing")
	}
	for _, a := range corpus {
		keys = append(keys, fuzzKey(a[0].(string), a[1].(string),
			a[2].(uint64), a[3].(uint64), a[4].(uint64), a[5].(uint64), a[6].(uint64), a[7].(uint64),
			a[8].(int), a[9].(int), a[10].(int), a[11].(int), a[12].(int), a[13].(int64),
			a[14].(bool), a[15].(bool), a[16].(bool), a[17].(bool), a[18].(string)))
	}
	return keys
}

// TestCanonicalMatchesFmtReference asserts Key.Canonical and
// Key.Fingerprint render every key exactly as the fmt-based reference
// does: on FuzzCellRoundTrip's seeds and corpus, and on seeded random
// keys whose names need quoting or carry invalid UTF-8.
func TestCanonicalMatchesFmtReference(t *testing.T) {
	keys := cellRoundTripKeys(t)
	rng := rand.New(rand.NewPCG(21, 1))
	pieces := []string{"stream", "bitcount", "dest-reg", "\n", "\r", `"`, `\`, "=", "é", "\xff", "\xc3", " ", ""}
	name := func() string {
		var b strings.Builder
		for n := rng.IntN(4); n >= 0; n-- {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		return b.String()
	}
	for i := 0; i < 2000; i++ {
		keys = append(keys, fuzzKey(name(), name(),
			rng.Uint64(), rng.Uint64(), rng.Uint64()>>rng.IntN(64), rng.Uint64(), rng.Uint64()>>rng.IntN(64), rng.Uint64(),
			int(rng.Int64()), rng.IntN(1<<20)-1<<19, rng.IntN(64), int(rng.Int32()), rng.IntN(256), rng.Int64()-rng.Int64(),
			rng.IntN(2) == 0, rng.IntN(2) == 0, rng.IntN(2) == 0, rng.IntN(2) == 0, name()))
	}
	for _, k := range keys {
		want := canonicalFmt(k)
		if got := k.Canonical(); got != want {
			t.Fatalf("Canonical drifted from the fmt reference:\n got %q\nwant %q", got, want)
		}
		sum := sha256.Sum256([]byte(want))
		if got := k.Fingerprint(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("Fingerprint drifted from the fmt reference for %q", want)
		}
	}
}
