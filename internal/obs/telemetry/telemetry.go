// Package telemetry provides time-resolved microarchitectural
// telemetry for the simulated cores: a Probe sampled at a fixed
// committed-instruction interval records IPC, queue occupancies,
// branch mispredicts, log-segment and checker-cluster state, and a
// stall-cause breakdown into a preallocated ring of samples.
//
// The package sits below the simulator packages (it imports only the
// standard library) so internal/ooo, internal/core and
// internal/inorder can all fill sample fields without import cycles.
//
// Telemetry is strictly out-of-band: nothing in this package touches
// simulation state, Result fields, fingerprints, or stdout. A core
// with no probe attached pays a single integer compare per retired
// instruction (the nil-probe fast path); see ooo.Core.AttachProbe.
//
// Counters in a Sample are cumulative (totals since the start of the
// run), while occupancies are instantaneous. Cumulative counters make
// the ring lossless for totals even after overwrite: the analyzer
// differences consecutive samples for per-interval rates, and the
// final sample (plus the sidecar header) always carries whole-run
// sums.
package telemetry

// Defaults for probe construction. An interval of 1000 committed
// instructions keeps sidecars small (a paper-scale 10M-instruction
// cell yields 10k samples) while still resolving log-segment
// fill/drain phases, which span tens of thousands of instructions.
const (
	DefaultInterval uint64 = 1000
	DefaultCap      int    = 8192
)

// Sample is one telemetry observation, taken when the main core's
// committed-instruction count crosses a multiple of the probe
// interval. Fields tagged "cumulative" are monotone totals since the
// start of the run; the rest are instantaneous occupancies at sample
// time. JSON tags are the sidecar line schema (grow-only).
type Sample struct {
	// Main-core progress (cumulative).
	Instructions uint64  `json:"instrs"`
	Cycles       uint64  `json:"cycles"`
	TimeNS       float64 `json:"t_ns"` // simulated time at sample

	// Main-core occupancies (instantaneous).
	ROB    int `json:"rob"`
	IQ     int `json:"iq"`
	LQ     int `json:"lq"`
	SQ     int `json:"sq"`
	FetchQ int `json:"fetchq"`

	// Branches (cumulative).
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`

	// Stall-cause breakdown (cumulative). Log-full, icache and rename
	// stalls are in main-core cycles; checkpoint stalls are simulated
	// nanoseconds (the commit block is expressed as a time horizon).
	LogFullStallCycles uint64  `json:"stall_logfull"`
	CheckpointStallNS  float64 `json:"stall_ckpt_ns"`
	ICacheStallCycles  uint64  `json:"stall_icache"`
	RenameStallCycles  uint64  `json:"stall_rename"`

	// Detector / load-store log state (instantaneous except the
	// cumulative Checkpoints and EntriesLogged).
	SegEntries    int    `json:"seg_entries"`
	SegCapacity   int    `json:"seg_cap"`
	SegsChecking  int    `json:"segs_checking"`
	Checkpoints   uint64 `json:"ckpts"`
	EntriesLogged uint64 `json:"entries"`

	// Checker cluster: busy checkers now, total re-executed
	// instructions across the cluster (cumulative).
	CheckersBusy  int    `json:"chk_busy"`
	CheckerInstrs uint64 `json:"chk_instrs"`
}

// A Probe accumulates interval samples into a fixed-capacity ring.
// The emitting core calls Record once per interval; everything is
// preallocated at construction so the sampling path never allocates.
//
// Probe is not safe for concurrent use — each simulated cell owns
// exactly one probe, driven from its (single-goroutine) event loop.
type Probe struct {
	interval uint64
	ring     []Sample
	head     int    // index of oldest sample when full
	n        int    // samples currently held (<= cap)
	total    uint64 // samples ever recorded (>= n after overwrite)

	// Extra, when non-nil, is invoked on each sample after the core
	// fills its own fields and before the sample enters the ring. The
	// system builder composes it from the detector and checker
	// cluster, which the core cannot see. It runs at most once per
	// interval, never on the disabled path.
	Extra func(*Sample)
}

// New returns a probe sampling every interval committed instructions,
// keeping the most recent capacity samples. Zero or negative values
// select the package defaults.
func New(interval uint64, capacity int) *Probe {
	if interval == 0 {
		interval = DefaultInterval
	}
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Probe{interval: interval, ring: make([]Sample, capacity)}
}

// Interval reports the committed-instruction sampling interval.
func (p *Probe) Interval() uint64 { return p.interval }

// Record stores one sample, running the Extra hook first and
// overwriting the oldest sample when the ring is full.
func (p *Probe) Record(s Sample) {
	if p.Extra != nil {
		p.Extra(&s)
	}
	if p.n < len(p.ring) {
		p.ring[(p.head+p.n)%len(p.ring)] = s
		p.n++
	} else {
		p.ring[p.head] = s
		p.head = (p.head + 1) % len(p.ring)
	}
	p.total++
}

// Total reports how many samples were ever recorded, including any
// that overwrote older ring entries. For a run of N committed
// instructions this equals floor(N / Interval()) — the reconciliation
// invariant pdreport checks against the store.
func (p *Probe) Total() uint64 { return p.total }

// Samples returns the retained samples oldest-first, as a copy.
func (p *Probe) Samples() []Sample {
	out := make([]Sample, p.n)
	for i := 0; i < p.n; i++ {
		out[i] = p.ring[(p.head+i)%len(p.ring)]
	}
	return out
}
