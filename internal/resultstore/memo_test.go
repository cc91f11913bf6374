package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
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
// record misses on its checksum or, re-signed, decodes again.
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
	get("changed packed record", 0, 1) // the damaged loose copy decodes; the record fails its checksum
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
	get("re-signed packed record", 8, 2)
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
		if _, err := m.decode(fp, data, sha256.Sum256(data)); err != nil {
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
// a cell of the key asked for, and once the race is over the handle
// must read what a handle with an empty memo reads.
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
					if ok && (c.Fingerprint != k.Fingerprint() || c.Result == nil || c.Result.Workload != k.Workload) {
						return fmt.Errorf("read of %s served %s (%+v)", k.Workload, c.Workload, c.Result)
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
