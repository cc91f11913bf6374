package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paradet/internal/sim"
)

func TestSparseReadWrite(t *testing.T) {
	s := NewSparse()
	s.Write(0x1000, 8, 0x1122334455667788)
	if got := s.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("read = %#x", got)
	}
	if got := s.Read(0x1000, 4); got != 0x55667788 {
		t.Errorf("partial read = %#x", got)
	}
	if got := s.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("offset read = %#x", got)
	}
	if got := s.Read(0x2000, 8); got != 0 {
		t.Errorf("unmapped read = %#x, want 0", got)
	}
}

func TestSparseCrossPageAccess(t *testing.T) {
	s := NewSparse()
	addr := uint64(0x1ffc) // straddles a 4 KiB page boundary
	s.Write(addr, 8, 0xdeadbeefcafef00d)
	if got := s.Read(addr, 8); got != 0xdeadbeefcafef00d {
		t.Errorf("cross-page read = %#x", got)
	}
	for i, want := range []byte{0x0d, 0xf0, 0xfe, 0xca, 0xef, 0xbe, 0xad, 0xde} {
		if got := s.ByteAt(addr + uint64(i)); got != want {
			t.Errorf("byte %#x = %#x, want %#x", addr+uint64(i), got, want)
		}
	}
}

// TestSparseReadAfterWrite is a property test: a read of any written
// location returns the most recent write.
func TestSparseReadAfterWrite(t *testing.T) {
	s := NewSparse()
	shadow := make(map[uint64]byte)
	f := func(addr uint64, sizeSel uint8, val uint64) bool {
		addr &= 0xffffff // keep the page map small
		size := []uint8{1, 2, 4, 8}[sizeSel%4]
		s.Write(addr, size, val)
		for i := uint8(0); i < size; i++ {
			shadow[addr+uint64(i)] = byte(val >> (8 * i))
		}
		got := s.Read(addr, size)
		var want uint64
		for i := uint8(0); i < size; i++ {
			want |= uint64(shadow[addr+uint64(i)]) << (8 * i)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCloneAndDiff(t *testing.T) {
	s, c := NewSparse(), NewSparse()
	s.Write(0x1000, 8, 42)
	c.Write(0x1000, 8, 42)
	if d := s.FirstDiff(c); d != "" {
		t.Fatalf("identical memories differ: %s", d)
	}
	c.Write(0x1000, 1, 43)
	if d, want := s.FirstDiff(c), "mem[0x1000]: 0x2a != 0x2b"; d != want {
		t.Fatalf("FirstDiff = %q, want %q", d, want)
	}
	// Writing zeros to a fresh page still compares equal to absence.
	d := NewSparse()
	e := NewSparse()
	d.Write(0x5000, 8, 0)
	if diff := d.FirstDiff(e); diff != "" {
		t.Errorf("zero-filled page must equal absent page: %s", diff)
	}
}

func TestSetBytesReadBytes(t *testing.T) {
	s := NewSparse()
	in := []byte{1, 2, 3, 4, 5}
	s.SetBytes(0xfff, in) // crosses a page
	for i := range in {
		if got := s.ByteAt(0xfff + uint64(i)); got != in[i] {
			t.Fatalf("byte %d = %d, want %d", i, got, in[i])
		}
	}
	if got := s.Read(0xfff, 4); got != 0x04030201 {
		t.Errorf("cross-page read = %#x, want 0x04030201", got)
	}
}

func newTestHierarchy(prefetch bool) (*Cache, *Cache, *DRAM) {
	dram := NewDDR3()
	l2 := NewCache(CacheConfig{
		Name: "l2", SizeBytes: 64 * 1024, Ways: 16, LineBytes: 64,
		HitLat: 4 * sim.Nanosecond, MSHRs: 16, Prefetch: prefetch,
	}, dram)
	l1 := NewCache(CacheConfig{
		Name: "l1", SizeBytes: 4 * 1024, Ways: 2, LineBytes: 64,
		HitLat: 1 * sim.Nanosecond, MSHRs: 6,
	}, l2)
	return l1, l2, dram
}

func TestCacheHitAfterMiss(t *testing.T) {
	l1, _, _ := newTestHierarchy(false)
	t0 := sim.Time(0)
	d1 := l1.Access(0x1000, false, 0x40, t0)
	if d1 <= t0+l1.cfg.HitLat {
		t.Fatalf("first access must miss: done at %v", d1)
	}
	d2 := l1.Access(0x1008, false, 0x44, d1) // same line
	if d2 != d1+l1.cfg.HitLat {
		t.Errorf("second access must hit: %v, want %v", d2, d1+l1.cfg.HitLat)
	}
	st := l1.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 4 KiB, 2-way, 64 B lines -> 32 sets. Three lines mapping to the
	// same set: strides of 32*64 = 2048 bytes.
	l1, _, _ := newTestHierarchy(false)
	a, b, c := uint64(0x0), uint64(0x800), uint64(0x1000)
	now := sim.Time(0)
	now = l1.Access(a, false, 4, now)
	now = l1.Access(b, false, 8, now)
	now = l1.Access(c, false, 12, now) // evicts a (LRU)
	misses := l1.Stats().Misses
	now = l1.Access(b, false, 8, now) // still resident
	if l1.Stats().Misses != misses {
		t.Error("b must still be resident")
	}
	l1.Access(a, false, 4, now) // must miss again
	if l1.Stats().Misses != misses+1 {
		t.Error("a must have been evicted")
	}
}

func TestCacheWritebackOfDirtyLines(t *testing.T) {
	l1, _, _ := newTestHierarchy(false)
	now := sim.Time(0)
	now = l1.Access(0x0, true, 4, now)    // dirty a
	now = l1.Access(0x800, false, 8, now) // fill b
	l1.Access(0x1000, false, 12, now)     // evicts dirty a -> writeback
	if l1.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", l1.Stats().Writebacks)
	}
}

func TestCacheMSHRLimitsOverlap(t *testing.T) {
	dram := NewDDR3()
	l1 := NewCache(CacheConfig{
		Name: "l1", SizeBytes: 4 * 1024, Ways: 2, LineBytes: 64,
		HitLat: 1 * sim.Nanosecond, MSHRs: 1,
	}, dram)
	// Two misses issued at the same instant: with one MSHR the second
	// must wait for the first fill.
	d1 := l1.Access(0x0000, false, 4, 0)
	d2 := l1.Access(0x2000, false, 8, 0)
	if d2 <= d1 {
		t.Errorf("second miss (%v) must serialise after first (%v)", d2, d1)
	}
	if l1.Stats().MSHRStall == 0 {
		t.Error("MSHR stall time must be accounted")
	}

	// With plentiful MSHRs the misses overlap (bounded by DRAM bandwidth,
	// not latency).
	l1b := NewCache(CacheConfig{
		Name: "l1b", SizeBytes: 4 * 1024, Ways: 2, LineBytes: 64,
		HitLat: 1 * sim.Nanosecond, MSHRs: 8,
	}, NewDDR3())
	e1 := l1b.Access(0x0000, false, 4, 0)
	e2 := l1b.Access(0x2000, false, 8, 0)
	if e2-e1 >= e1 {
		t.Errorf("parallel misses should overlap: %v then %v", e1, e2)
	}
}

func TestStridePrefetcherHidesLatency(t *testing.T) {
	// Sequential walk at a fixed stride with a prefetching L2: once the
	// stride locks in, L2 misses stop growing with accesses.
	_, l2p, _ := func() (*Cache, *Cache, *DRAM) { return newTestHierarchy(true) }()
	_, l2n, _ := newTestHierarchy(false)

	walk := func(l2 *Cache) uint64 {
		now := sim.Time(0)
		pc := uint64(0x40)
		for i := 0; i < 64; i++ {
			addr := uint64(i * 64) // new line every access
			now = l2.Access(addr, false, pc, now)
		}
		return l2.Stats().Misses
	}
	mp, mn := walk(l2p), walk(l2n)
	if mp >= mn {
		t.Errorf("prefetching L2 misses (%d) should be below non-prefetching (%d)", mp, mn)
	}
	if l2p.Stats().Prefetches == 0 {
		t.Error("prefetches must be counted")
	}
}

func TestDRAMBandwidthSerialisation(t *testing.T) {
	d := NewDDR3()
	t1 := d.Access(0, false, 0, 0)
	t2 := d.Access(64, false, 0, 0)
	if t2 != t1+d.Gap {
		t.Errorf("second access must queue behind first: %v vs %v", t2, t1)
	}
	if d.Accesses() != 2 {
		t.Errorf("accesses = %d", d.Accesses())
	}
}

func TestCacheRandomisedAgainstNoCrash(t *testing.T) {
	l1, _, _ := newTestHierarchy(true)
	r := rand.New(rand.NewSource(7))
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		addr := uint64(r.Intn(1 << 20))
		write := r.Intn(3) == 0
		done := l1.Access(addr, write, uint64(r.Intn(4096))*4, now)
		if done < now {
			t.Fatalf("completion %v before issue %v", done, now)
		}
		if r.Intn(4) == 0 {
			now += sim.Time(r.Intn(100)) * sim.Nanosecond
		}
	}
	st := l1.Stats()
	if st.Accesses != 5000 || st.Hits+st.Misses != st.Accesses {
		t.Errorf("inconsistent stats: %+v", st)
	}
}
