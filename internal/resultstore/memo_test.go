package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"paradet"
)

// decodeCounts reads the read path's decode counters.
func decodeCounts() (decoded, reused uint64) {
	return obsDecodeJSON.Value(), obsDecodeMemo.Value()
}

// TestGetReusesVerifiedDecode asserts a repeated read of unchanged
// bytes, loose or packed, by key or by fingerprint, returns the cell
// of the first read and decodes nothing.
func TestGetReusesVerifiedDecode(t *testing.T) {
	s := openStore(t)
	packed := putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	loose := putTestCell(t, s, "bitcount", 1000)
	for _, tc := range []struct {
		name string
		k    Key
	}{{"loose", loose}, {"packed", packed}} {
		first, ok := s.Get(tc.k)
		if !ok {
			t.Fatalf("%s: stored cell missed", tc.name)
		}
		d0, r0 := decodeCounts()
		again, ok1 := s.Get(tc.k)
		byFP, ok2 := s.GetFingerprint(tc.k.Fingerprint())
		d1, r1 := decodeCounts()
		if !ok1 || !ok2 || again != first || byFP != first {
			t.Errorf("%s: repeated reads returned %p and %p, want the first read's %p", tc.name, again, byFP, first)
		}
		if d1 != d0 || r1-r0 != 2 {
			t.Errorf("%s: repeated reads decoded %d and reused %d times, want 0 and 2", tc.name, d1-d0, r1-r0)
		}
	}
}

// TestMemoJudgesChangedBytesAfresh asserts changed bytes get today's
// outcome: a rewritten loose file decodes again, a damaged one misses
// or falls through to its packed twin, a packed twin equal to the
// verified loose bytes reuses their decode, and a changed packed
// record misses on its checksum or, re-signed, decodes again. The
// damaged loose copy's refusal is remembered, so later reads do not
// decode it again.
func TestMemoJudgesChangedBytesAfresh(t *testing.T) {
	s := openStore(t)
	k := putTestCell(t, s, "stream", 1000)
	first, ok := s.Get(k)
	if !ok {
		t.Fatal("stored cell missed")
	}
	put := func(instrs uint64) {
		t.Helper()
		if err := s.Put(k, &Cell{Result: &paradet.Result{Workload: "stream", Instructions: instrs}}); err != nil {
			t.Fatal(err)
		}
	}
	get := func(what string, wantInstrs uint64, wantDecodes uint64) *Cell {
		t.Helper()
		d0, _ := decodeCounts()
		c, ok := s.Get(k)
		d1, _ := decodeCounts()
		switch {
		case wantInstrs == 0 && ok:
			t.Errorf("%s: served %+v, want a miss", what, c.Result)
		case wantInstrs != 0 && (!ok || c.Result.Instructions != wantInstrs):
			t.Errorf("%s: ok=%v cell=%+v, want instructions %d", what, ok, c, wantInstrs)
		}
		if d1-d0 != wantDecodes {
			t.Errorf("%s: %d decodes, want %d", what, d1-d0, wantDecodes)
		}
		return c
	}

	put(7)
	if c := get("rewritten loose file", 7, 1); c == first {
		t.Error("rewritten loose file served the old cell")
	}
	data, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(k), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	get("truncated loose file", 0, 1)

	if err := os.WriteFile(s.Path(k), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	// The record's bytes equal the loose decode's: its entry serves it.
	packed := get("packed record", 7, 0)
	put(7)
	if err := os.WriteFile(s.Path(k), []byte("{damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c := get("damaged loose copy", 7, 1); c != packed {
		t.Error("damaged loose copy did not fall through to the memoized packed twin")
	}

	// Change the memoized record in place: the checksum catches it.
	seg := segmentPaths(t, s)[0]
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	changed := bytes.Replace(raw, []byte(`"Instructions": 7,`), []byte(`"Instructions": 8,`), 1)
	if bytes.Equal(changed, raw) {
		t.Fatal("record payload not found in the segment")
	}
	if err := os.WriteFile(seg, changed, 0o644); err != nil {
		t.Fatal(err)
	}
	get("changed packed record", 0, 0) // the damaged loose copy's refusal is remembered; the record fails its checksum
	// Re-signed, the changed record passes its checksum and decodes.
	resignSegment(t, seg, func(f *segFooter) {
		e := f.Entries[0]
		sum := sha256.Sum256(changed[e.Offset : e.Offset+e.Length])
		f.Entries[0].SHA256 = hex.EncodeToString(sum[:])
	})
	later := time.Now().Add(time.Hour) // the footer cache keys on mtime
	if err := os.Chtimes(seg, later, later); err != nil {
		t.Fatal(err)
	}
	get("re-signed packed record", 8, 1)
}

// TestRefusedLooseCopyIsJudgedOnce asserts a fingerprint whose loose
// copy is refused and whose packed copy is served costs no JSON decode
// on a repeated Get: the refusal is remembered like the served cell.
func TestRefusedLooseCopyIsJudgedOnce(t *testing.T) {
	s := openStore(t)
	k := putTestCell(t, s, "stream", 1000)
	if _, err := s.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	putTestCell(t, s, "stream", 1000) // a loose copy beside the record
	data, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"workload": "stream"`), []byte(`"workload": "forged"`), 1)
	if err := os.WriteFile(s.Path(k), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	first, ok := s.Get(k)
	if !ok || first.Workload != "stream" {
		t.Fatalf("Get = %v, %v; want the packed record", first, ok)
	}
	d0, r0 := decodeCounts()
	for i := 0; i < 5; i++ {
		if c, ok := s.Get(k); !ok || c != first {
			t.Fatalf("repeated Get %d = %p, %v; want the first read's %p", i, c, ok, first)
		}
	}
	if d1, r1 := decodeCounts(); d1 != d0 || r1-r0 != 10 {
		t.Errorf("5 repeated Gets decoded %d and reused %d verdicts, want 0 and 10", d1-d0, r1-r0)
	}
}

// TestMemoNeverChangesVerdict asserts the memo's verdict on any bytes,
// first and repeated, is decodeCell's: the same cell or the same
// refusal. The bytes are the cells Put would write for
// FuzzCellRoundTrip's seeds and corpus, and seeded mutations of them,
// each judged under its own fingerprint and a wrong one.
func TestMemoNeverChangesVerdict(t *testing.T) {
	var m cellMemo
	rng := rand.New(rand.NewPCG(25, 1))
	mutate := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		i := rng.IntN(len(b))
		switch rng.IntN(4) {
		case 0: // flip one bit: mostly valid JSON with a changed value
			b[i] ^= 1 << rng.IntN(8)
		case 1:
			b = b[:i]
		case 2:
			b = append(b[:i], b[i+rng.IntN(len(b)-i):]...)
		default:
			b[i] = `{}[]",:0 tn`[rng.IntN(11)]
		}
		return b
	}
	var served, refused int
	for _, k := range cellRoundTripKeys(t) {
		fp := k.Fingerprint()
		other := k
		other.Workload += "'"
		data, err := json.MarshalIndent(&Cell{Schema: SchemaVersion, Fingerprint: fp, Workload: k.Workload, Scheme: k.Scheme,
			Config: k.Config, Fault: k.Fault, Result: &paradet.Result{Workload: k.Workload, Instructions: 7}}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		variants := [][]byte{data}
		for i := 0; i < 60; i++ {
			variants = append(variants, mutate(data))
		}
		for _, v := range variants {
			for _, under := range []string{fp, other.Fingerprint()} {
				want, wantErr := decodeCell(v, under)
				if wantErr == nil {
					served++
				} else {
					refused++
				}
				for _, pass := range []string{"first", "repeated"} {
					_, r0 := decodeCounts()
					got, err := m.judge(under, v, sha256.Sum256(v))
					if _, r1 := decodeCounts(); pass == "repeated" && r1-r0 != 1 {
						t.Fatalf("a repeated judgement of %q was not served by the memo", v)
					}
					if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
						t.Fatalf("%s verdict on %q: error %v, decodeCell's %v", pass, v, err, wantErr)
					}
					if err == nil {
						g := *got
						g.enc = nil
						if !reflect.DeepEqual(g, *want) {
							t.Fatalf("%s verdict on %q: cell %+v, decodeCell's %+v", pass, v, g, *want)
						}
					}
				}
			}
		}
	}
	if served == 0 || refused == 0 {
		t.Errorf("%d served and %d refused verdicts: want both outcomes covered", served, refused)
	}
}

// TestEditedIdentityIsMiss asserts a cell whose identity fields were
// edited, so that they no longer fingerprint to its name, is a miss by
// key and by fingerprint, loose and packed, even after its unedited
// bytes were read and memoized.
func TestEditedIdentityIsMiss(t *testing.T) {
	s := openStore(t)
	k := putTestCell(t, s, "stream", 1000)
	fp := k.Fingerprint()
	if _, ok := s.Get(k); !ok {
		t.Fatal("stored cell missed")
	}
	data, err := os.ReadFile(s.cellPath(fp))
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"workload": "stream"`), []byte(`"workload": "other"`), 1)
	if bytes.Equal(edited, data) {
		t.Fatal("workload field not found in the stored cell")
	}
	miss := func(layout string) {
		t.Helper()
		if c, ok := s.Get(k); ok {
			t.Errorf("%s: Get served the edited cell (workload %q)", layout, c.Workload)
		}
		if c, ok := s.GetFingerprint(fp); ok {
			t.Errorf("%s: GetFingerprint served the edited cell (workload %q)", layout, c.Workload)
		}
	}
	if err := writeFileAtomic(s.cellPath(fp), edited); err != nil {
		t.Fatal(err)
	}
	miss("loose")
	var c Cell
	if err := json.Unmarshal(edited, &c); err != nil {
		t.Fatal(err)
	}
	if _, _, err := writeSegment(s.segDir(), []segSource{{fp: fp, data: edited, cell: &c, created: time.Now()}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.cellPath(fp)); err != nil {
		t.Fatal(err)
	}
	miss("packed")
}

// TestMemoBounded asserts the memo never holds more than memoCapacity
// decodes.
func TestMemoBounded(t *testing.T) {
	var m cellMemo
	for i := 0; i < memoCapacity+100; i++ {
		k := testKey()
		k.Config.MaxInstrs = uint64(i + 1)
		fp := k.Fingerprint()
		data, err := json.Marshal(&Cell{Schema: SchemaVersion, Fingerprint: fp, Workload: k.Workload, Scheme: k.Scheme, Config: k.Config,
			Result: &paradet.Result{Instructions: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.judge(fp, data, sha256.Sum256(data)); err != nil {
			t.Fatal(err)
		}
		if n := len(m.entries); n > memoCapacity {
			t.Fatalf("memo holds %d decodes after %d reads, capacity %d", n, i+1, memoCapacity)
		}
	}
	if n := len(m.entries); n != memoCapacity {
		t.Errorf("memo holds %d decodes, want a full %d", n, memoCapacity)
	}
}

// TestMemoConcurrentGetPutCompact races readers, writers and a
// compactor on one handle (run it under -race). Every read must serve
// a cell of the key asked for, whose body (encoded by whichever reader
// asks first) is that cell's encoding, and once the race is over the
// handle must read what a handle with an empty memo reads.
func TestMemoConcurrentGetPutCompact(t *testing.T) {
	s := openStore(t)
	const nkeys, rounds = 6, 20
	keys := make([]Key, nkeys)
	for i := range keys {
		keys[i] = putTestCell(t, s, fmt.Sprintf("w%d", i), 1000)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				errs <- err
			}
		}()
	}
	for w := 0; w < 2; w++ {
		run(func() error { // writers: new payloads for every key
			for r := 1; r <= rounds; r++ {
				for _, k := range keys {
					if err := s.Put(k, &Cell{Result: &paradet.Result{Workload: k.Workload, Instructions: uint64(1000 + r)}}); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	for rd := 0; rd < 2; rd++ {
		run(func() error { // readers: by key and by fingerprint
			for r := 0; r < 4*rounds; r++ {
				for _, k := range keys {
					var c *Cell
					var ok bool
					if r%2 == 0 {
						c, ok = s.Get(k)
					} else {
						c, ok = s.GetFingerprint(k.Fingerprint())
					}
					if !ok {
						continue
					}
					if c.Fingerprint != k.Fingerprint() || c.Result == nil || c.Result.Workload != k.Workload {
						return fmt.Errorf("read of %s served %s (%+v)", k.Workload, c.Workload, c.Result)
					}
					body, err := c.Body()
					want, werr := encodeBody(c)
					if err != nil || werr != nil || !bytes.Equal(body, want) {
						return fmt.Errorf("read of %s: body %q (%v) is not the cell's encoding", k.Workload, body, err)
					}
				}
			}
			return nil
		})
	}
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Compact(CompactOptions{}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-compactorDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	fresh := mustOpen(t, s.Dir())
	for _, k := range keys {
		got, ok := s.Get(k)
		want, wok := fresh.Get(k)
		if ok != wok || ok && got.Result.Instructions != want.Result.Instructions {
			t.Errorf("%s: handle reads %v %+v, a fresh handle %v %+v", k.Workload, ok, got, wok, want)
		}
	}
}
