package mem

import (
	"fmt"

	"paradet/internal/sim"
)

// Level is one level of the timing-side memory hierarchy. Access models a
// request issued at time now and returns its completion time. The
// functional value of the access lives in the Sparse store; Levels model
// time only, which keeps the timing hierarchy independent of fault
// injection (the paper assumes ECC protects all memory blocks, §IV-A).
type Level interface {
	Access(addr uint64, write bool, pc uint64, now sim.Time) sim.Time
}

// CacheConfig sizes one cache.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	HitLat    sim.Time // total hit latency
	MSHRs     int      // max outstanding misses
	Prefetch  bool     // attach a PC-indexed stride prefetcher (paper: L2)
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Prefetches uint64
	MSHRStall  sim.Time // cumulative time requests waited for a free MSHR
}

type cacheLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64   // LRU stamp
	readyAt sim.Time // fill completion; a hit before this waits
}

// Cache is a set-associative write-back, write-allocate cache timing
// model with a fixed number of MSHRs bounding miss-level parallelism.
type Cache struct {
	cfg       CacheConfig
	sets      int
	lineShift uint
	lines     []cacheLine // sets*ways, row-major by set
	next      Level
	mshr      []sim.Time // busy-until per MSHR
	useClock  uint64
	pf        *stridePrefetcher
	stats     CacheStats
}

// NewCache builds a cache in front of next. It panics on a non-power-of-2
// or inconsistent geometry, which is a configuration bug.
func NewCache(cfg CacheConfig, next Level) *Cache {
	if next == nil {
		panic("mem: cache requires a next level")
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: %s line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	if cfg.Ways <= 0 || cfg.SizeBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		panic(fmt.Sprintf("mem: %s geometry %d/%d/%d inconsistent", cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.LineBytes))
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: %s set count %d not a power of two", cfg.Name, sets))
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	var shift uint
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		lines:     make([]cacheLine, sets*cfg.Ways),
		next:      next,
		mshr:      make([]sim.Time, cfg.MSHRs),
	}
	if cfg.Prefetch {
		c.pf = newStridePrefetcher()
	}
	return c
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Name reports the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

func (c *Cache) set(addr uint64) []cacheLine {
	idx := int(addr>>c.lineShift) & (c.sets - 1)
	return c.lines[idx*c.cfg.Ways : (idx+1)*c.cfg.Ways]
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

// Access implements Level.
func (c *Cache) Access(addr uint64, write bool, pc uint64, now sim.Time) sim.Time {
	c.stats.Accesses++
	c.useClock++
	la := c.lineAddr(addr)
	set := c.set(addr)
	tag := la

	// Lookup.
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			c.stats.Hits++
			ln.lastUse = c.useClock
			if write {
				ln.dirty = true
			}
			start := sim.Max(now, ln.readyAt)
			c.observePrefetch(pc, la, now)
			return start + c.cfg.HitLat
		}
	}

	// Miss: wait for an MSHR, fetch from next level, install.
	c.stats.Misses++
	done := c.fill(la, pc, now, false)
	if write {
		// Write-allocate: mark the just-installed line dirty.
		c.markDirty(la)
	}
	c.observePrefetch(pc, la, now)
	return done + c.cfg.HitLat
}

// fill brings la into the cache, returning fill completion time.
func (c *Cache) fill(la uint64, pc uint64, now sim.Time, isPrefetch bool) sim.Time {
	// MSHR allocation: take the earliest-free slot; if none is free at
	// `now`, the request queues (stall time accounted).
	best := 0
	for i := range c.mshr {
		if c.mshr[i] < c.mshr[best] {
			best = i
		}
	}
	start := sim.Max(now, c.mshr[best])
	if start > now {
		c.stats.MSHRStall += start - now
	}
	fillDone := c.next.Access(la, false, pc, start)
	c.mshr[best] = fillDone

	// Victim selection and writeback.
	set := c.set(la)
	victim := &set[0]
	for i := range set {
		ln := &set[i]
		if !ln.valid {
			victim = ln
			break
		}
		if ln.lastUse < victim.lastUse {
			victim = ln
		}
	}
	if victim.valid && victim.dirty {
		c.stats.Writebacks++
		// Writebacks drain through a write buffer; charge next-level
		// bandwidth but do not delay the demand fill.
		c.next.Access(victim.tag, true, 0, start)
	}
	*victim = cacheLine{tag: la, valid: true, lastUse: c.useClock, readyAt: fillDone}
	if isPrefetch {
		c.stats.Prefetches++
	}
	return fillDone
}

func (c *Cache) markDirty(la uint64) {
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].dirty = true
			return
		}
	}
}

// Holds reports whether addr's line is present, without touching LRU
// state or statistics. An Access to a held line is a hit, which in a
// cache without a prefetcher touches no other level.
func (c *Cache) Holds(addr uint64) bool { return c.present(c.lineAddr(addr)) }

func (c *Cache) present(la uint64) bool {
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return true
		}
	}
	return false
}

func (c *Cache) observePrefetch(pc, la uint64, now sim.Time) {
	if c.pf == nil || pc == 0 {
		return
	}
	if target, ok := c.pf.observe(pc, la); ok {
		tla := c.lineAddr(target)
		if !c.present(tla) {
			c.fill(tla, 0, now, true)
		}
	}
}

// stridePrefetcher is a PC-indexed reference-prediction table: when the
// same PC touches lines with a stable stride, the next line is fetched
// ahead of use. Matches the "stride prefetcher" on the paper's L2.
type stridePrefetcher struct {
	entries [256]pfEntry
}

type pfEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     uint8
}

func newStridePrefetcher() *stridePrefetcher { return &stridePrefetcher{} }

const pfConfThreshold = 2

func (p *stridePrefetcher) observe(pc, addr uint64) (uint64, bool) {
	e := &p.entries[(pc>>2)&255]
	if e.pc != pc {
		*e = pfEntry{pc: pc, lastAddr: addr}
		return 0, false
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == 0 {
		return 0, false
	}
	if stride == e.stride {
		if e.conf < 4 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastAddr = addr
	if e.conf >= pfConfThreshold {
		return uint64(int64(addr) + stride), true
	}
	return 0, false
}

// DRAM is a flat-latency, bandwidth-limited memory timing model standing
// in for the paper's DDR3-1600 channel.
type DRAM struct {
	// Latency is the end-to-end access latency (row activate + CAS +
	// transfer), applied to every request.
	Latency sim.Time
	// Gap is the minimum spacing between request starts, modelling
	// channel bandwidth (64 B per Gap).
	Gap sim.Time

	nextFree sim.Time
	accesses uint64
	busyTime sim.Time
}

// NewDDR3 returns a model approximating DDR3-1600 11-11-11 (paper Table I):
// ~60 ns loaded random-access latency and ~9 GB/s sustained bandwidth
// (7 ns per 64-byte line; ~70% of the 12.8 GB/s pin rate, the usual
// sustained efficiency once refresh, turnarounds and bank conflicts are
// accounted for).
func NewDDR3() *DRAM {
	return &DRAM{Latency: 60 * sim.Nanosecond, Gap: 7 * sim.Nanosecond}
}

// Access implements Level.
func (d *DRAM) Access(addr uint64, write bool, pc uint64, now sim.Time) sim.Time {
	start := sim.Max(now, d.nextFree)
	d.nextFree = start + d.Gap
	d.accesses++
	d.busyTime += d.Gap
	return start + d.Latency
}

// Accesses reports the total number of DRAM requests.
func (d *DRAM) Accesses() uint64 { return d.accesses }
