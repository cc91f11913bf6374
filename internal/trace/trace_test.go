package trace

import (
	"testing"

	"paradet/internal/asm"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/workloads"
)

func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOracleStreamsToHalt(t *testing.T) {
	prog := assemble(t, `
_start:
	movz x1, 5
	movz x2, 0
loop:
	add  x2, x2, x1
	subi x1, x1, 1
	cbnz x1, loop
	mov  x0, x2
	svc
	hlt
`)
	o := NewOracle(prog, mem.NewSparse(), 0)
	var di isa.DynInst
	var count int
	for o.Next(&di) {
		count++
	}
	if !o.Done() || o.Err != nil {
		t.Fatalf("done=%v err=%v", o.Done(), o.Err)
	}
	if !di.Halt {
		t.Error("last dynamic instruction must be the HLT")
	}
	if got := o.Env.Output; len(got) != 1 || got[0] != 15 {
		t.Errorf("output = %v, want [15]", got)
	}
	if count != int(o.M.InstCount) {
		t.Errorf("streamed %d, machine counted %d", count, o.M.InstCount)
	}
	// Stream stays ended.
	if o.Next(&di) {
		t.Error("Next after end must return false")
	}
}

func TestOracleInstructionBudget(t *testing.T) {
	prog := assemble(t, `
_start:
	movz x1, 0
loop:
	addi x1, x1, 1
	b loop
`)
	o := NewOracle(prog, mem.NewSparse(), 100)
	var di isa.DynInst
	n := 0
	for o.Next(&di) {
		n++
	}
	if n != 100 {
		t.Errorf("budgeted oracle streamed %d, want 100", n)
	}
	if o.Err != nil {
		t.Errorf("budget exhaustion is not a fault: %v", o.Err)
	}
}

func TestOracleReportsProgramFault(t *testing.T) {
	// Jump outside the image.
	prog := assemble(t, `
_start:
	li  x1, 0x99999000
	jalr xzr, x1, 0
`)
	o := NewOracle(prog, mem.NewSparse(), 0)
	var di isa.DynInst
	for o.Next(&di) {
	}
	if o.Err == nil {
		t.Fatal("wild jump must end the stream with a fault (§IV-H)")
	}
	if _, ok := o.Err.(*isa.ProgError); !ok {
		t.Errorf("fault type %T", o.Err)
	}
}

func TestInitialRegsMatchOracleStart(t *testing.T) {
	prog := assemble(t, "_start:\n\thlt")
	o := NewOracle(prog, mem.NewSparse(), 0)
	init := InitialRegs(prog)
	if diff := init.Diff(o.M.Snapshot()); diff != "" {
		t.Fatalf("initial regs differ from oracle start: %s", diff)
	}
	if init.X[isa.RegSP] != StackTop {
		t.Error("loader must point SP at the stack")
	}
}

func TestRdtimeValuesAreDistinctAndRecorded(t *testing.T) {
	prog := assemble(t, `
_start:
	rdtime x1
	rdtime x2
	hlt
`)
	o := NewOracle(prog, mem.NewSparse(), 0)
	var vals []uint64
	var di isa.DynInst
	for o.Next(&di) {
		if di.HasNonDet {
			vals = append(vals, di.NonDetVal)
		}
	}
	if len(vals) != 2 || vals[0] == vals[1] {
		t.Fatalf("rdtime values %v: want two distinct", vals)
	}
}

func TestProgramImageLoadedIntoMemory(t *testing.T) {
	prog := assemble(t, `
_start:
	la   x1, word
	ldrd x2, [x1]
	hlt
word: .dword 0xfeedface
`)
	m := mem.NewSparse()
	o := NewOracle(prog, m, 0)
	var di isa.DynInst
	for o.Next(&di) {
	}
	if o.M.X[2] != 0xfeedface {
		t.Fatalf("data segment not visible to loads: x2 = %#x", o.M.X[2])
	}
}

func TestDstValIsWhatCommits(t *testing.T) {
	prog := assemble(t, `
_start:
	la   x1, pair
	ldp  x2, x3, [x1]
	addi x4, x2, 1
	fmovfx f5, x4
	strd x4, [x1]
	hlt
pair: .dword 7, 9
`)
	o := NewOracle(prog, mem.NewSparse(), 0)
	// A fault hook flipping x4 after the addi: the record must carry the
	// corrupted value, which is what the register file commits.
	o.M.Hooks.PostExec = func(m *isa.Machine, di *isa.DynInst) {
		if di.Inst.Op == isa.OpADDI && di.Inst.Rd == 4 {
			m.X[4] ^= 1 << 10
		}
	}
	want := map[isa.Op][]uint64{
		isa.OpLDP:    {7, 9},
		isa.OpADDI:   {8 ^ 1<<10},
		isa.OpFMOVFX: {8 ^ 1<<10},
	}
	var di isa.DynInst
	for o.Next(&di) {
		w, ok := want[di.Inst.Op]
		if !ok {
			continue
		}
		var buf [2]isa.RegRef
		dsts := di.Inst.Dsts(buf[:0])
		if len(dsts) != len(w) {
			t.Fatalf("%v: %d destinations, want %d", di.Inst, len(dsts), len(w))
		}
		for i := range w {
			if di.DstVal[i] != w[i] {
				t.Errorf("%v: DstVal[%d] = %#x, want %#x", di.Inst, i, di.DstVal[i], w[i])
			}
		}
		delete(want, di.Inst.Op)
	}
	if len(want) != 0 {
		t.Errorf("instructions not seen: %v", want)
	}
}

// BenchmarkOracle streams 40,000 instructions of the freqmine kernel
// through the functional oracle alone; it reports the cost per retired
// instruction.
func BenchmarkOracle(b *testing.B) {
	_, src, err := workloads.Get("freqmine")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOracle(prog, mem.NewSparse(), 40_000)
		var di isa.DynInst
		for o.Next(&di) {
		}
		if o.Err != nil {
			b.Fatal(o.Err)
		}
		instrs += o.M.InstCount
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
