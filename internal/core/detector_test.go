package core

import (
	"testing"

	"paradet/internal/asm"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/sim"
	"paradet/internal/trace"
)

// stubChecker records StartCheck calls and completes on demand.
type stubChecker struct {
	sink    ResultSink
	live    []*Segment // originals awaiting completion (non-auto mode)
	started []*Segment // deep copies kept for inspection
	auto    bool       // complete successfully at StartCheck
}

func (s *stubChecker) StartCheck(seg *Segment, at sim.Time) {
	// Segment buffers are reused after SegmentChecked frees them, so
	// keep a deep copy for later inspection.
	cp := *seg
	cp.Entries = append([]LogEntry(nil), seg.Entries...)
	s.started = append(s.started, &cp)
	if s.auto {
		s.sink.SegmentChecked(seg, CheckResult{OK: true, FinishedAt: at, Instrs: seg.InstCount})
	} else {
		s.live = append(s.live, seg)
	}
}

// completeAll finishes every outstanding segment, marking entries checked
// `lag` after the seal.
func (s *stubChecker) completeAll(d *Detector, lag sim.Time) {
	for _, seg := range s.live {
		at := seg.SealedAt + lag
		for i := range seg.Entries {
			d.EntryChecked(&seg.Entries[i], at)
		}
		d.SegmentChecked(seg, CheckResult{OK: true, FinishedAt: at, Instrs: seg.InstCount})
	}
	s.live = s.live[:0]
}

func testConfig(nseg int) Config {
	cfg := DefaultConfig(sim.NewClock(3_200_000_000))
	cfg.NumSegments = nseg
	cfg.LogBytes = nseg * 8 * 16 // 8 entries per segment
	cfg.TimeoutInstrs = 1000
	return cfg
}

// buildDetector wires a detector over an assembled program with stub
// checkers, plus an oracle producing the committed stream.
func buildDetector(t *testing.T, src string, cfg Config, auto bool) (*Detector, *trace.Oracle, []*stubChecker) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	d := New(cfg, trace.InitialRegs(prog))
	stubs := make([]*stubChecker, cfg.NumSegments)
	pool := make([]Checker, cfg.NumSegments)
	for i := range stubs {
		stubs[i] = &stubChecker{sink: d, auto: auto}
		pool[i] = stubs[i]
	}
	d.AttachCheckers(pool)
	oracle := trace.NewOracle(prog, mem.NewSparse(), 0)
	return d, oracle, stubs
}

const tinyLoop = `
_start:
	movz x1, 0
	la   x2, buf
loop:
	strd x1, [x2]
	addi x2, x2, 8
	addi x1, x1, 1
	li   x3, 50
	blt  x1, x3, loop
	hlt
	.align 8
buf: .space 512
`

// drive commits the oracle stream through the detector, retrying refused
// commits as the core would, advancing a synthetic clock.
func drive(t *testing.T, d *Detector, o *trace.Oracle) sim.Time {
	t.Helper()
	now := sim.Time(0)
	var di isa.DynInst
	for o.Next(&di) {
		for {
			stall, ok := d.TryCommit(&di, now)
			now += sim.Nanosecond
			if ok {
				now += stall
				break
			}
		}
	}
	d.Finish(now)
	return now
}

func TestSegmentLifecycleAndCheckpointChaining(t *testing.T) {
	d, o, stubs := buildDetector(t, tinyLoop, testConfig(4), true)
	drive(t, d, o)
	if !d.AllChecked() {
		t.Fatal("auto-completing checkers must leave nothing outstanding")
	}
	st := d.Stats()
	if st.Checkpoints < 5 {
		t.Fatalf("50 stores over 8-entry segments: want many checkpoints, got %d", st.Checkpoints)
	}
	// Every segment's start checkpoint must equal the previous segment's
	// end checkpoint (strong induction chain), and instruction ranges
	// must tile the stream.
	var all []*Segment
	for _, s := range stubs {
		all = append(all, s.started...)
	}
	byNo := map[uint64]*Segment{}
	for _, seg := range all {
		byNo[seg.SeqNo] = seg
	}
	for no := uint64(2); no <= uint64(len(all)); no++ {
		prev, cur := byNo[no-1], byNo[no]
		if prev == nil || cur == nil {
			t.Fatalf("missing segment %d or %d", no-1, no)
		}
		if diff := prev.EndRegs.Diff(cur.StartRegs); diff != "" {
			t.Fatalf("segment %d start != segment %d end: %s", no, no-1, diff)
		}
		if cur.StartSeq != prev.StartSeq+prev.InstCount {
			t.Fatalf("segment %d instruction range does not chain", no)
		}
	}
}

func TestSegmentCapacityNeverExceeded(t *testing.T) {
	cfg := testConfig(4)
	d, o, stubs := buildDetector(t, tinyLoop, cfg, true)
	drive(t, d, o)
	for _, s := range stubs {
		for _, seg := range s.started {
			if len(seg.Entries) > cfg.SegmentEntries() {
				t.Fatalf("segment %d holds %d entries, capacity %d",
					seg.SeqNo, len(seg.Entries), cfg.SegmentEntries())
			}
		}
	}
}

func TestMacroOpNeverSplitsAcrossSegments(t *testing.T) {
	// Pair stores produce two entries that must land in one segment
	// (§IV-D). With an odd capacity the boundary forces the case.
	cfg := testConfig(4)
	cfg.LogBytes = 4 * 7 * 16 // 7 entries per segment: pairs can't tile evenly
	src := `
_start:
	movz x1, 0
	la   x2, buf
loop:
	stp  x1, x1, [x2]
	addi x2, x2, 16
	addi x1, x1, 1
	li   x3, 40
	blt  x1, x3, loop
	hlt
	.align 8
buf: .space 1024
`
	d, o, stubs := buildDetector(t, src, cfg, true)
	drive(t, d, o)
	for _, s := range stubs {
		for _, seg := range s.started {
			// Both halves of every pair share a Seq; if a macro-op were
			// split, a segment would start with the second half: same Seq
			// as the previous segment's last entry.
			for i := 1; i < len(seg.Entries); i++ {
				if seg.Entries[i].Seq == seg.Entries[i-1].Seq {
					// fine within a segment
					continue
				}
			}
		}
	}
	// Cross-segment check: collect entries in order.
	var flat []LogEntry
	byNo := map[uint64]*Segment{}
	var maxNo uint64
	for _, s := range stubs {
		for _, seg := range s.started {
			byNo[seg.SeqNo] = seg
			if seg.SeqNo > maxNo {
				maxNo = seg.SeqNo
			}
		}
	}
	var boundaries []int
	for no := uint64(1); no <= maxNo; no++ {
		boundaries = append(boundaries, len(flat))
		flat = append(flat, byNo[no].Entries...)
	}
	for _, b := range boundaries[1:] {
		if b > 0 && b < len(flat) && flat[b].Seq == flat[b-1].Seq {
			t.Fatalf("macro-op split across a segment boundary at entry %d (seq %d)", b, flat[b].Seq)
		}
	}
}

func TestTimeoutSealsEntrylessSegments(t *testing.T) {
	// A long computation with no memory traffic must still checkpoint
	// via the instruction timeout (§IV-J).
	cfg := testConfig(4)
	cfg.TimeoutInstrs = 100
	src := `
_start:
	movz x1, 0
loop:
	addi x1, x1, 1
	li   x3, 1000
	blt  x1, x3, loop
	hlt
`
	d, o, _ := buildDetector(t, src, cfg, true)
	drive(t, d, o)
	st := d.Stats()
	if st.SealsByReason[SealTimeout] < 5 {
		t.Fatalf("timeout seals = %d, want many for a store-free loop", st.SealsByReason[SealTimeout])
	}
}

func TestInterruptSealsEarly(t *testing.T) {
	cfg := testConfig(4)
	cfg.InterruptInterval = 100 * sim.Nanosecond
	d, o, _ := buildDetector(t, tinyLoop, cfg, true)
	drive(t, d, o)
	if d.Stats().SealsByReason[SealInterrupt] == 0 {
		t.Fatal("interrupt boundary must seal segments (§IV-G)")
	}
}

func TestRefusalWhenAllSegmentsBusy(t *testing.T) {
	// Non-completing checkers: after all buffers fill, TryCommit must
	// refuse (ok=false), modelling the stalled main core.
	cfg := testConfig(2)
	d, o, _ := buildDetector(t, tinyLoop, cfg, false)
	now := sim.Time(0)
	var di isa.DynInst
	refused := false
	for o.Next(&di) {
		_, ok := d.TryCommit(&di, now)
		now += sim.Nanosecond
		if !ok {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatal("detector must refuse commits once every segment is checking")
	}
}

func TestStrongInductionConfirmationOrder(t *testing.T) {
	// Deliver results out of order: an error in segment 3 reported first
	// must not be confirmed until segments 1 and 2 check clean; then an
	// error in segment 2 must steal first-error status... which cannot
	// happen (segments complete once), so instead verify: error in 3
	// stays unconfirmed until 1-2 arrive, then confirms.
	cfg := testConfig(4)
	d, _, _ := buildDetector(t, tinyLoop, cfg, false)
	mk := func(no uint64) *Segment { return &Segment{SeqNo: no, State: SegChecking} }
	s1, s2, s3 := mk(1), mk(2), mk(3)
	errRep := &ErrorReport{Kind: ErrStoreValue, SegSeqNo: 3}
	d.segSeq = 3
	calls := 0
	d.OnFirstError = func() { calls++ }

	d.SegmentChecked(s3, CheckResult{OK: false, Err: errRep})
	if d.FirstError() != nil || calls != 0 {
		t.Fatal("error must not confirm before earlier segments complete")
	}
	d.SegmentChecked(s1, CheckResult{OK: true})
	if d.FirstError() != nil || calls != 0 {
		t.Fatal("segment 2 still outstanding")
	}
	d.SegmentChecked(s2, CheckResult{OK: true})
	fe := d.FirstError()
	if fe == nil || !fe.Confirmed || fe.SegSeqNo != 3 {
		t.Fatalf("first error = %+v, want confirmed segment 3", fe)
	}
	if calls != 1 {
		t.Fatalf("OnFirstError called %d times at confirmation, want 1", calls)
	}
}

func TestEarlierErrorWinsConfirmation(t *testing.T) {
	cfg := testConfig(4)
	d, _, _ := buildDetector(t, tinyLoop, cfg, false)
	mk := func(no uint64) *Segment { return &Segment{SeqNo: no, State: SegChecking} }
	d.segSeq = 3
	calls := 0
	d.OnFirstError = func() { calls++ }
	d.SegmentChecked(mk(3), CheckResult{OK: false, Err: &ErrorReport{Kind: ErrStoreValue, SegSeqNo: 3}})
	d.SegmentChecked(mk(2), CheckResult{OK: false, Err: &ErrorReport{Kind: ErrStoreAddr, SegSeqNo: 2}})
	d.SegmentChecked(mk(1), CheckResult{OK: true})
	fe := d.FirstError()
	if fe == nil || fe.SegSeqNo != 2 {
		t.Fatalf("first error = %+v, want segment 2 (the earliest failure)", fe)
	}
	if calls != 1 {
		t.Fatalf("OnFirstError called %d times for two confirmed errors, want 1", calls)
	}
	if len(d.Errors()) != 2 {
		t.Fatalf("all errors must be retained: %d", len(d.Errors()))
	}
}

func TestDelayStatsRecordedPerEntry(t *testing.T) {
	cfg := testConfig(4)
	d, o, stubs := buildDetector(t, tinyLoop, cfg, false)
	// Manually complete each started segment 500 ns after seal, marking
	// entries checked then.
	now := sim.Time(0)
	var di isa.DynInst
	pump := func() {
		for _, s := range stubs {
			s.completeAll(d, 500*sim.Nanosecond)
		}
	}
	for o.Next(&di) {
		for {
			stall, ok := d.TryCommit(&di, now)
			now += sim.Nanosecond
			if ok {
				now += stall
				break
			}
			pump()
		}
	}
	d.Finish(now)
	pump()
	if d.Delay.Count() == 0 {
		t.Fatal("no delays recorded")
	}
	if mean := d.Delay.Mean(); mean < 500 {
		t.Errorf("mean delay %.0f ns, must include the 500 ns check lag", mean)
	}
}

func TestLFUOccupancyBounded(t *testing.T) {
	cfg := testConfig(4)
	d, o, _ := buildDetector(t, tinyLoop, cfg, true)
	// Simulate capture-before-commit for every load/store op.
	now := sim.Time(0)
	var di isa.DynInst
	for o.Next(&di) {
		if di.NMem > 0 {
			d.OnLoadData(&di, now)
		}
		for {
			stall, ok := d.TryCommit(&di, now)
			now += sim.Nanosecond
			if ok {
				now += stall
				break
			}
		}
	}
	d.Finish(now)
	if peak := d.Stats().LFUPeak; peak > 40 {
		t.Errorf("LFU peak %d exceeds ROB size (the paper's sizing argument)", peak)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("tiny segment", func() {
		cfg := testConfig(2)
		cfg.LogBytes = 16 // one entry per segment: can't hold a macro-op
		New(cfg, isa.ArchRegs{})
	})
	expectPanic("checker count mismatch", func() {
		cfg := testConfig(2)
		d := New(cfg, isa.ArchRegs{})
		d.AttachCheckers([]Checker{&stubChecker{}})
	})
}
