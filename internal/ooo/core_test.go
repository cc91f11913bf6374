package ooo

import (
	"testing"

	"paradet/internal/asm"
	"paradet/internal/branch"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/sim"
	"paradet/internal/trace"
	"paradet/internal/workloads"
)

// buildCore assembles src and wires a core with a private hierarchy.
func buildCore(t testing.TB, src string, gate CommitGate, maxInstrs uint64) *Core {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewTableIConfig()
	dram := mem.NewDDR3()
	l2 := mem.NewCache(mem.CacheConfig{
		Name: "l2", SizeBytes: 1 << 20, Ways: 16, LineBytes: 64,
		HitLat: cfg.Clock.Duration(12), MSHRs: 16, Prefetch: true,
	}, dram)
	l1i := mem.NewCache(mem.CacheConfig{
		Name: "l1i", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64,
		HitLat: cfg.Clock.Duration(2), MSHRs: 6,
	}, l2)
	l1d := mem.NewCache(mem.CacheConfig{
		Name: "l1d", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64,
		HitLat: cfg.Clock.Duration(2), MSHRs: 6,
	}, l2)
	oracle := trace.NewOracle(prog, mem.NewSparse(), maxInstrs)
	return New(cfg, oracle, l1i, l1d, branch.New(branch.Config{}), gate)
}

func runToCompletion(t testing.TB, c *Core) Stats {
	t.Helper()
	eng := sim.NewEngine()
	eng.Add(c, 0)
	eng.Run(sim.MaxTime - 1)
	if !c.Done() {
		t.Fatal("core did not drain")
	}
	return c.Stats()
}

// repeat builds a loop running `body` 2000 times.
func repeat(body string) string {
	return `
_start:
	movz x28, 0
loop:
` + body + `
	addi x28, x28, 1
	li   x27, 2000
	blt  x28, x27, loop
	hlt
`
}

func TestIndependentALUOpsReachWidthIPC(t *testing.T) {
	// Three independent adds per iteration plus loop overhead: IPC must
	// approach the 3-wide limit.
	c := buildCore(t, repeat(`
	add x1, x10, x11
	add x2, x12, x13
	add x3, x14, x15
	add x4, x10, x12
	add x5, x11, x14
`), nil, 0)
	st := runToCompletion(t, c)
	if ipc := st.IPC(); ipc < 2.0 {
		t.Errorf("independent ALU IPC = %.2f, want near 3", ipc)
	}
}

func TestDependentChainLimitsIPC(t *testing.T) {
	// A serial dependency chain retires one chain-op per cycle, so with
	// 8 chained adds plus ~3 loop-overhead instructions per iteration the
	// ceiling is 11/8 ~ 1.4 IPC — far below the independent-op test.
	c := buildCore(t, repeat(`
	add x1, x1, x10
	add x1, x1, x11
	add x1, x1, x12
	add x1, x1, x13
	add x1, x1, x10
	add x1, x1, x11
	add x1, x1, x12
	add x1, x1, x13
`), nil, 0)
	st := runToCompletion(t, c)
	if ipc := st.IPC(); ipc > 1.5 {
		t.Errorf("dependent chain IPC = %.2f, want <= 11/8", ipc)
	}
}

func TestDivergentLatencyOfDivides(t *testing.T) {
	// Non-pipelined divides throttle throughput far below an ALU loop.
	div := buildCore(t, repeat("div x1, x1, x10"), nil, 0)
	alu := buildCore(t, repeat("add x1, x1, x10"), nil, 0)
	dst := runToCompletion(t, div)
	ast := runToCompletion(t, alu)
	if dst.FinishTime <= ast.FinishTime*3 {
		t.Errorf("divide loop (%v) should be >3x slower than add loop (%v)",
			dst.FinishTime, ast.FinishTime)
	}
}

func TestCacheMissBoundWorkloadHasLowIPC(t *testing.T) {
	// Dependent loads marching over 8 MiB defeat the L2 and prefetcher.
	src := `
_start:
	li  x1, 0x1000000
	movz x2, 0
loop:
	ldrd x3, [x1]
	add  x4, x4, x3
	addi x1, x1, 4096
	li   x6, 0x7fffff
	and  x5, x1, x6
	li   x6, 0x1000000
	orr  x1, x5, x6
	addi x2, x2, 1
	li   x7, 3000
	blt  x2, x7, loop
	hlt
`
	c := buildCore(t, src, nil, 0)
	st := runToCompletion(t, c)
	if ipc := st.IPC(); ipc > 1.0 {
		t.Errorf("miss-bound IPC = %.2f, want well below 1", ipc)
	}
}

func TestBranchMispredictsCharged(t *testing.T) {
	// Data-dependent unpredictable branches (PRNG parity) must record
	// mispredictions and cost cycles versus a predictable loop.
	src := repeat(`
	li   x20, 0x5851F42D4C957F2D
	mul  x9, x9, x20
	addi x9, x9, 77
	andi x10, x9, 1
	cbz  x10, skip` + "\n\taddi x11, x11, 1\nskip:")
	c := buildCore(t, src, nil, 0)
	st := runToCompletion(t, c)
	if st.Mispredicts == 0 {
		t.Fatal("PRNG-dependent branches must mispredict")
	}
	rate := float64(st.Mispredicts) / float64(st.Branches)
	if rate < 0.05 {
		t.Errorf("mispredict rate %.3f implausibly low for random branches", rate)
	}
}

func TestPredictableLoopRarelyMispredicts(t *testing.T) {
	c := buildCore(t, repeat("add x1, x1, x2"), nil, 0)
	st := runToCompletion(t, c)
	rate := float64(st.Mispredicts) / float64(st.Branches)
	if rate > 0.05 {
		t.Errorf("loop branch mispredict rate %.3f, want near 0", rate)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A load immediately after an overlapping store must not pay a cache
	// round trip; compare against loading a distant cold location.
	fwd := buildCore(t, repeat(`
	strd x9, [sp, 64]
	ldrd x1, [sp, 64]
`), nil, 0)
	st := runToCompletion(t, fwd)
	// ~12 instructions per iteration incl. overhead; forwarding keeps
	// IPC healthy (> 1) where a serialising cache access would not.
	if ipc := st.IPC(); ipc < 1.0 {
		t.Errorf("store-forwarded IPC = %.2f, want > 1", ipc)
	}
}

// gateRecorder observes commit-gate traffic.
type gateRecorder struct {
	commits   uint64
	loads     uint64
	stallOnce sim.Time
	blockSeq  uint64 // refuse commits of this seq once
	blocked   uint64
}

func (g *gateRecorder) TryCommit(di *isa.DynInst, now sim.Time) (sim.Time, bool) {
	if di.Seq == g.blockSeq && g.blocked == 0 {
		g.blocked++
		return 0, false
	}
	g.commits++
	s := g.stallOnce
	g.stallOnce = 0
	return s, true
}

func (g *gateRecorder) OnLoadData(di *isa.DynInst, at sim.Time) { g.loads++ }

func TestCommitGateSeesEveryInstructionOnce(t *testing.T) {
	g := &gateRecorder{}
	c := buildCore(t, repeat("ldrd x1, [sp, 8]"), g, 0)
	st := runToCompletion(t, c)
	if g.commits != st.Instructions {
		t.Errorf("gate saw %d commits, core retired %d", g.commits, st.Instructions)
	}
	if g.loads == 0 {
		t.Error("gate must observe load-data captures")
	}
}

func TestCommitGateStallDelaysCompletion(t *testing.T) {
	free := buildCore(t, repeat("add x1, x1, x2"), &gateRecorder{}, 0)
	fst := runToCompletion(t, free)

	stall := &gateRecorder{stallOnce: 1 * sim.Microsecond}
	// stallOnce returns the stall for the first commit only; inject a
	// fresh 1 us stall every commit instead for a visible effect.
	_ = stall
	heavy := buildCore(t, repeat("add x1, x1, x2"), &alwaysStall{}, 0)
	hst := runToCompletion(t, heavy)
	if hst.FinishTime <= fst.FinishTime {
		t.Errorf("per-commit stalls must slow the core: %v vs %v", hst.FinishTime, fst.FinishTime)
	}
	if hst.CheckpointStall == 0 {
		t.Error("stall time must be accounted")
	}
}

type alwaysStall struct{}

func (a *alwaysStall) TryCommit(di *isa.DynInst, now sim.Time) (sim.Time, bool) {
	return 10 * sim.Nanosecond, true
}
func (a *alwaysStall) OnLoadData(di *isa.DynInst, at sim.Time) {}

func TestCommitGateRefusalStallsAndRetries(t *testing.T) {
	g := &gateRecorder{blockSeq: 100}
	c := buildCore(t, repeat("add x1, x1, x2"), g, 0)
	st := runToCompletion(t, c)
	if g.blocked != 1 {
		t.Fatalf("gate refusal count = %d", g.blocked)
	}
	if st.LogFullStallCycles == 0 {
		t.Error("refused commits must count log-full stall cycles")
	}
	if g.commits != st.Instructions {
		t.Error("refused instruction must eventually commit")
	}
}

func TestMacroOpsOccupyTwoCommitSlots(t *testing.T) {
	c := buildCore(t, repeat("ldp x1, x2, [sp, 16]"), nil, 0)
	st := runToCompletion(t, c)
	if st.MicroOps <= st.Instructions {
		t.Errorf("pair macro-ops must retire more micro-ops (%d) than instructions (%d)",
			st.MicroOps, st.Instructions)
	}
}

func TestTraceBudgetBoundsRun(t *testing.T) {
	c := buildCore(t, repeat("add x1, x1, x2"), nil, 500)
	st := runToCompletion(t, c)
	if st.Instructions != 500 {
		t.Errorf("retired %d instructions under a 500 budget", st.Instructions)
	}
}

// tickCounter counts the activations the engine gives the core.
type tickCounter struct {
	*Core
	ticks uint64
}

func (t *tickCounter) Tick(now sim.Time) (sim.Time, bool) {
	t.ticks++
	return t.Core.Tick(now)
}

func TestDeadCyclesSkippedButCounted(t *testing.T) {
	// Each commit pauses commit and rename for 10 ns, exactly 32 cycles:
	// the core is idle through most of every pause, yet every cycle of
	// it still counts, as a cycle and as a rename stall.
	c := buildCore(t, repeat("add x1, x1, x2"), &alwaysStall{}, 0)
	tc := &tickCounter{Core: c}
	eng := sim.NewEngine()
	eng.Add(tc, 0)
	eng.Run(sim.MaxTime - 1)
	if !c.Done() {
		t.Fatal("core did not drain")
	}
	st := c.Stats()
	if want := uint64(st.FinishTime/c.cfg.Clock.Period) + 1; st.Cycles != want {
		t.Errorf("cycles = %d, want one per clock edge up to the finish, %d", st.Cycles, want)
	}
	// The last commit's pause is cut short by the end of the run.
	if want := 32*(st.Instructions-1) + 1; st.RenameStallCycles != want {
		t.Errorf("rename stalls = %d, want %d", st.RenameStallCycles, want)
	}
	if tc.ticks*4 > st.Cycles {
		t.Errorf("%d ticks for %d cycles: dead cycles are not being skipped", tc.ticks, st.Cycles)
	}
}

// BenchmarkCore runs the bare main core over 40,000 instructions of
// randacc, the kernel with the largest share of idle cycles, and reports
// the cost per committed instruction (functional oracle included).
func BenchmarkCore(b *testing.B) {
	_, src, err := workloads.Get("randacc")
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	for i := 0; i < b.N; i++ {
		instrs += runToCompletion(b, buildCore(b, src, nil, 40_000)).Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
