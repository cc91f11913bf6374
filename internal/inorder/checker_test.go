package inorder

import (
	"fmt"
	"strings"
	"testing"

	"paradet/internal/asm"
	"paradet/internal/core"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/sim"
	"paradet/internal/trace"
	"paradet/internal/workloads"
)

// sinkRecorder collects checker results.
type sinkRecorder struct {
	results []core.CheckResult
	entries int
	lastAt  sim.Time
}

func (s *sinkRecorder) SegmentChecked(seg *core.Segment, res core.CheckResult) {
	seg.State = core.SegFree
	s.results = append(s.results, res)
}

func (s *sinkRecorder) EntryChecked(e *core.LogEntry, at sim.Time) {
	s.entries++
	s.lastAt = at
}

// buildSegment runs the oracle over src and packages the first n
// committed instructions as one segment (whole program if n == 0).
func buildSegment(t testing.TB, src string, n uint64) (*isa.Program, *core.Segment) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	oracle := trace.NewOracle(prog, mem.NewSparse(), n)
	seg := &core.Segment{SeqNo: 1, StartSeq: 1, StartRegs: trace.InitialRegs(prog), State: core.SegChecking}
	var di isa.DynInst
	now := sim.Time(0)
	for oracle.Next(&di) {
		for i := uint8(0); i < di.NMem; i++ {
			m := di.Mem[i]
			kind := core.EntryLoad
			if m.IsStore {
				kind = core.EntryStore
			}
			seg.Entries = append(seg.Entries, core.LogEntry{
				Kind: kind, Addr: m.Addr, Val: m.Val, Size: m.Size,
				Seq: di.Seq, CommitTime: now,
			})
		}
		if di.HasNonDet {
			seg.Entries = append(seg.Entries, core.LogEntry{
				Kind: core.EntryNonDet, Val: di.NonDetVal, Seq: di.Seq, CommitTime: now,
			})
		}
		seg.InstCount++
		now += sim.Nanosecond
	}
	seg.EndRegs = oracle.M.Snapshot()
	seg.SealedAt = now
	return prog, seg
}

// runChecker drives one checker over one segment to completion.
func runChecker(t *testing.T, prog *isa.Program, seg *core.Segment, hz uint64) (*sinkRecorder, *Checker, sim.Time) {
	t.Helper()
	sink := &sinkRecorder{}
	eng := sim.NewEngine()
	clock := sim.NewClock(hz)
	l1 := mem.NewCache(mem.CacheConfig{
		Name: "cl1", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64,
		HitLat: clock.Duration(2), MSHRs: 4,
	}, mem.NewDDR3())
	l0 := mem.NewCache(mem.CacheConfig{
		Name: "cl0", SizeBytes: 2 << 10, Ways: 2, LineBytes: 64,
		HitLat: 0, MSHRs: 1,
	}, l1)
	ck := New(0, DefaultConfig(clock), prog, l0, sink, eng)
	ck.StartCheck(seg, seg.SealedAt)
	end := eng.Run(sim.MaxTime - 1)
	if len(sink.results) != 1 {
		t.Fatalf("checker produced %d results, want 1", len(sink.results))
	}
	return sink, ck, end
}

const checkerLoop = `
_start:
	movz x1, 0
	la   x2, buf
loop:
	mul  x4, x1, x1
	strd x4, [x2]
	ldrd x5, [x2]
	add  x6, x6, x5
	addi x2, x2, 8
	addi x1, x1, 1
	li   x3, 30
	blt  x1, x3, loop
	rdtime x7
	hlt
	.align 8
buf: .space 256
`

func TestCheckerValidatesCleanSegment(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	sink, ck, end := runChecker(t, prog, seg, 1_000_000_000)
	res := sink.results[0]
	if !res.OK {
		t.Fatalf("clean segment rejected: %+v", res.Err)
	}
	if res.Instrs != seg.InstCount {
		t.Errorf("checker executed %d instructions, segment has %d", res.Instrs, seg.InstCount)
	}
	if sink.entries != len(seg.Entries) {
		t.Errorf("checked %d entries of %d", sink.entries, len(seg.Entries))
	}
	if ck.Stats().SegmentsChecked != 1 || ck.Stats().Errors != 0 {
		t.Errorf("stats: %+v", ck.Stats())
	}
	if busy, n := ck.TelemetrySnapshot(end); busy || n != seg.InstCount {
		t.Errorf("after the check: busy %t, %d instructions, want idle after %d", busy, n, seg.InstCount)
	}
}

func TestCheckerDetectsStoreValueCorruption(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	for i := range seg.Entries {
		if seg.Entries[i].Kind == core.EntryStore {
			seg.Entries[i].Val ^= 1 << 7
			break
		}
	}
	sink, _, _ := runChecker(t, prog, seg, 1_000_000_000)
	res := sink.results[0]
	if res.OK || res.Err == nil || res.Err.Kind != core.ErrStoreValue {
		t.Fatalf("want store-value error, got %+v", res.Err)
	}
}

func TestCheckerDetectsStoreAddrCorruption(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	for i := range seg.Entries {
		if seg.Entries[i].Kind == core.EntryStore {
			seg.Entries[i].Addr += 8
			break
		}
	}
	sink, _, _ := runChecker(t, prog, seg, 1_000_000_000)
	if res := sink.results[0]; res.OK || res.Err.Kind != core.ErrStoreAddr {
		t.Fatalf("want store-addr error, got %+v", res.Err)
	}
}

func TestCheckerDetectsLoadAddrCorruption(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	for i := range seg.Entries {
		if seg.Entries[i].Kind == core.EntryLoad {
			seg.Entries[i].Addr ^= 1 << 4
			break
		}
	}
	sink, _, _ := runChecker(t, prog, seg, 1_000_000_000)
	if res := sink.results[0]; res.OK || res.Err.Kind != core.ErrLoadAddr {
		t.Fatalf("want load-addr error, got %+v", res.Err)
	}
}

func TestCheckerDetectsEndCheckpointMismatch(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	seg.EndRegs.X[6] ^= 1 << 3 // corrupt the checkpointed accumulator
	sink, _, _ := runChecker(t, prog, seg, 1_000_000_000)
	res := sink.results[0]
	if res.OK || res.Err.Kind != core.ErrEndCheckpoint {
		t.Fatalf("want end-checkpoint error, got %+v", res.Err)
	}
	if !strings.Contains(res.Err.Detail, "x6") {
		t.Errorf("detail %q should name the register", res.Err.Detail)
	}
}

func TestCheckerDetectsNonDetMismatch(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	for i := range seg.Entries {
		if seg.Entries[i].Kind == core.EntryNonDet {
			seg.Entries[i].Val++
			break
		}
	}
	sink, _, _ := runChecker(t, prog, seg, 1_000_000_000)
	res := sink.results[0]
	// A corrupted RDTIME value lands in x7, caught at the end checkpoint.
	if res.OK {
		t.Fatal("corrupted non-deterministic value escaped")
	}
}

func TestCheckerDetectsLogOverrunAndUnderrun(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	// Overrun: appending a spurious entry leaves it unconsumed.
	segOver := *seg
	segOver.Entries = append(append([]core.LogEntry(nil), seg.Entries...), core.LogEntry{Kind: core.EntryLoad})
	sink, _, _ := runChecker(t, prog, &segOver, 1_000_000_000)
	if res := sink.results[0]; res.OK || res.Err.Kind != core.ErrLogOverrun {
		t.Fatalf("want log-overrun, got %+v", res.Err)
	}
	// Underrun: dropping the last entry starves the checker.
	segUnder := *seg
	segUnder.Entries = append([]core.LogEntry(nil), seg.Entries[:len(seg.Entries)-1]...)
	sink2, _, _ := runChecker(t, prog, &segUnder, 1_000_000_000)
	if res := sink2.results[0]; res.OK {
		t.Fatal("starved checker must report an error")
	}
}

func TestCheckerFrequencyScalesCheckTime(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	_, ckFast, _ := runChecker(t, prog, seg, 2_000_000_000)
	prog2, seg2 := buildSegment(t, checkerLoop, 0)
	_, ckSlow, _ := runChecker(t, prog2, seg2, 250_000_000)
	fast := ckFast.Stats().BusyTime
	slow := ckSlow.Stats().BusyTime
	ratio := float64(slow) / float64(fast)
	if ratio < 6 || ratio > 10 {
		t.Errorf("8x clock ratio gave %.1fx check-time ratio", ratio)
	}
}

func TestCheckerHooksEnableFaultInjection(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	sink := &sinkRecorder{}
	eng := sim.NewEngine()
	clock := sim.NewClock(1_000_000_000)
	l0 := mem.NewCache(mem.CacheConfig{
		Name: "cl0", SizeBytes: 2 << 10, Ways: 2, LineBytes: 64, HitLat: 0, MSHRs: 1,
	}, mem.NewDDR3())
	ck := New(0, DefaultConfig(clock), prog, l0, sink, eng)
	n := 0
	ck.Hooks().PostExec = func(m *isa.Machine, di *isa.DynInst) {
		n++
		if n == 10 {
			m.X[6] ^= 1 << 2 // checker-internal corruption
		}
	}
	ck.StartCheck(seg, 0)
	eng.Run(sim.MaxTime - 1)
	if len(sink.results) != 1 || sink.results[0].OK {
		t.Fatal("checker-internal fault must surface as a detection (over-detection)")
	}
}

func TestCheckerRejectsDoubleStart(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	sink := &sinkRecorder{}
	eng := sim.NewEngine()
	clock := sim.NewClock(1_000_000_000)
	l0 := mem.NewCache(mem.CacheConfig{
		Name: "cl0", SizeBytes: 2 << 10, Ways: 2, LineBytes: 64, HitLat: 0, MSHRs: 1,
	}, mem.NewDDR3())
	ck := New(0, DefaultConfig(clock), prog, l0, sink, eng)
	ck.StartCheck(seg, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double StartCheck must panic")
		}
	}()
	ck.StartCheck(seg, 0)
}

// newWarmChecker builds a checker whose L0 already holds every line of
// prog, with the fills complete by the returned time.
func newWarmChecker(prog *isa.Program, sink core.ResultSink, eng *sim.Engine) (*Checker, sim.Time) {
	clock := sim.NewClock(1_000_000_000)
	l0 := mem.NewCache(mem.CacheConfig{
		Name: "cl0", SizeBytes: 2 << 10, Ways: 2, LineBytes: 64, HitLat: 0, MSHRs: 1,
	}, mem.NewDDR3())
	var ready sim.Time
	for line := prog.Origin &^ 63; line < prog.End(); line += 64 {
		ready = l0.Access(line, false, 0, ready)
	}
	return New(0, DefaultConfig(clock), prog, l0, sink, eng), ready
}

// loopSource is checkerLoop with n iterations.
func loopSource(n int) string {
	return strings.Replace(checkerLoop, "li   x3, 30", fmt.Sprintf("li   x3, %d", n), 1)
}

// TestCheckerRunsAhead: on code that stays in L0, the activation at
// the start of a check executes the whole check or runAheadCap
// instructions, whichever is fewer, and telemetry sampled at that time
// still sees only the instruction due then.
func TestCheckerRunsAhead(t *testing.T) {
	for _, iters := range []int{30, 100} {
		prog, seg := buildSegment(t, loopSource(iters), 0)
		sink := &sinkRecorder{}
		eng := sim.NewEngine()
		ck, ready := newWarmChecker(prog, sink, eng)
		ck.StartCheck(seg, ready)
		startAt := ready + ck.cfg.Clock.Duration(ck.cfg.PipeFillCycles)
		eng.Run(startAt)
		want := min(seg.InstCount, runAheadCap)
		if got := ck.Stats().Instructions; got != want {
			t.Errorf("%d iterations: %d instructions executed by %v, want %d", iters, got, startAt, want)
		}
		if busy, n := ck.TelemetrySnapshot(startAt); !busy || n != 1 {
			t.Errorf("%d iterations: snapshot at start = busy %t, %d instructions; want busy, 1", iters, busy, n)
		}
		if len(sink.results) != 0 {
			t.Errorf("%d iterations: verdict delivered at the first instruction's time", iters)
		}
		end := eng.Run(sim.MaxTime - 1)
		if len(sink.results) != 1 || !sink.results[0].OK {
			t.Fatalf("%d iterations: results %+v", iters, sink.results)
		}
		if busy, n := ck.TelemetrySnapshot(end); busy || n != seg.InstCount {
			t.Errorf("%d iterations: snapshot at end = busy %t, %d instructions; want idle, %d", iters, busy, n, seg.InstCount)
		}
	}
}

// timedSink records when the engine delivered each verdict and when
// the last log entry was checked.
type timedSink struct {
	sinkRecorder
	eng         *sim.Engine
	deliveredAt []sim.Time
}

func (s *timedSink) SegmentChecked(seg *core.Segment, res core.CheckResult) {
	s.deliveredAt = append(s.deliveredAt, s.eng.Now())
	s.sinkRecorder.SegmentChecked(seg, res)
}

// TestVerdictDeliveredAtFinishTime: a check that fails part-way stops
// at the failing instruction, and the detector hears of it in the
// activation at that instruction's time, not when the checker ran it.
func TestVerdictDeliveredAtFinishTime(t *testing.T) {
	prog, seg := buildSegment(t, checkerLoop, 0)
	stores := 0
	for i := range seg.Entries {
		if seg.Entries[i].Kind == core.EntryStore {
			if stores++; stores == 10 {
				seg.Entries[i].Val ^= 1
				break
			}
		}
	}
	eng := sim.NewEngine()
	sink := &timedSink{eng: eng}
	ck, ready := newWarmChecker(prog, sink, eng)
	ck.StartCheck(seg, ready)
	eng.Run(sim.MaxTime - 1)
	if len(sink.results) != 1 {
		t.Fatalf("%d results, want 1", len(sink.results))
	}
	res := sink.results[0]
	if res.OK || res.Err.Kind != core.ErrStoreValue {
		t.Fatalf("want a store-value error, got %+v", res.Err)
	}
	at := res.Err.DetectedAt
	if sink.deliveredAt[0] != at || res.FinishedAt != at || sink.lastAt != at {
		t.Errorf("delivered at %v, finished at %v, failing entry checked at %v; want all at detection time %v",
			sink.deliveredAt[0], res.FinishedAt, sink.lastAt, at)
	}
	if ran := res.Err.InstSeq - seg.StartSeq + 1; res.Instrs != ran || ck.Stats().Instructions != ran || ran >= seg.InstCount {
		t.Errorf("executed %d (stats %d) of %d instructions, failing one is number %d",
			res.Instrs, ck.Stats().Instructions, seg.InstCount, ran)
	}
}

// BenchmarkChecker reports the host cost of one re-executed instruction:
// a checker core checking freqmine's first 40k instructions as one
// segment, from a cold L0.
func BenchmarkChecker(b *testing.B) {
	_, src, err := workloads.Get("freqmine")
	if err != nil {
		b.Fatal(err)
	}
	prog, seg := buildSegment(b, src, 40_000)
	clock := sim.NewClock(1_000_000_000)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &sinkRecorder{}
		eng := sim.NewEngine()
		l1 := mem.NewCache(mem.CacheConfig{
			Name: "cl1", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64,
			HitLat: clock.Duration(2), MSHRs: 4,
		}, mem.NewDDR3())
		l0 := mem.NewCache(mem.CacheConfig{
			Name: "cl0", SizeBytes: 2 << 10, Ways: 2, LineBytes: 64, HitLat: 0, MSHRs: 1,
		}, l1)
		ck := New(0, DefaultConfig(clock), prog, l0, sink, eng)
		ck.StartCheck(seg, 0)
		eng.Run(sim.MaxTime - 1)
		if len(sink.results) != 1 || !sink.results[0].OK {
			b.Fatalf("check failed: %+v", sink.results)
		}
		instrs += ck.Stats().Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
