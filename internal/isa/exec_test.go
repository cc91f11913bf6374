package isa

import (
	"math"
	"slices"
	"testing"
)

// testEnv is a trivial Env over a byte map, plus the program its
// machines step.
type testEnv struct {
	prog  *Program
	bytes map[uint64]byte
	time  uint64
	svc   func(m *Machine)
}

func newTestEnv() *testEnv {
	return &testEnv{prog: NewProgram(0, 0, nil, nil), bytes: map[uint64]byte{}}
}

// machine returns a fresh machine stepping the env's program.
func (e *testEnv) machine() *Machine { return &Machine{Prog: e.prog, Env: e} }

func (e *testEnv) Load(addr uint64, size uint8) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(e.bytes[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (e *testEnv) Store(addr uint64, size uint8, val uint64) {
	for i := uint8(0); i < size; i++ {
		e.bytes[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

func (e *testEnv) ReadTime() uint64 { return e.time }

func (e *testEnv) Syscall(m *Machine) {
	if e.svc != nil {
		e.svc(m)
	}
}

// load assembles a sequence of instructions at pc 0.
func (e *testEnv) load(t testing.TB, insts ...Inst) {
	t.Helper()
	image := make([]byte, 0, 4*len(insts))
	for _, in := range insts {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		image = append(image, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	e.prog = NewProgram(0, 0, image, nil)
}

func run(t *testing.T, m *Machine, n int) []DynInst {
	t.Helper()
	var out []DynInst
	for i := 0; i < n; i++ {
		var di DynInst
		if err := m.Step(&di); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		out = append(out, di)
		if m.Halted {
			break
		}
	}
	return out
}

func TestIntArithmetic(t *testing.T) {
	cases := []struct {
		name string
		in   Inst
		x1   uint64 // initial x1
		x2   uint64 // initial x2
		want uint64 // expected x3
	}{
		{"add", Inst{Op: OpADD, Rd: 3, Rs1: 1, Rs2: 2}, 5, 7, 12},
		{"sub", Inst{Op: OpSUB, Rd: 3, Rs1: 1, Rs2: 2}, 5, 7, ^uint64(1)}, // -2
		{"and", Inst{Op: OpAND, Rd: 3, Rs1: 1, Rs2: 2}, 0xff, 0x0f, 0x0f},
		{"orr", Inst{Op: OpORR, Rd: 3, Rs1: 1, Rs2: 2}, 0xf0, 0x0f, 0xff},
		{"xor", Inst{Op: OpXOR, Rd: 3, Rs1: 1, Rs2: 2}, 0xff, 0x0f, 0xf0},
		{"lsl", Inst{Op: OpLSL, Rd: 3, Rs1: 1, Rs2: 2}, 1, 8, 256},
		{"lsl-mod64", Inst{Op: OpLSL, Rd: 3, Rs1: 1, Rs2: 2}, 1, 64, 1},
		{"lsr", Inst{Op: OpLSR, Rd: 3, Rs1: 1, Rs2: 2}, 256, 8, 1},
		{"asr", Inst{Op: OpASR, Rd: 3, Rs1: 1, Rs2: 2}, ^uint64(0), 8, ^uint64(0)},
		{"mul", Inst{Op: OpMUL, Rd: 3, Rs1: 1, Rs2: 2}, 6, 7, 42},
		{"div", Inst{Op: OpDIV, Rd: 3, Rs1: 1, Rs2: 2}, 42, 6, 7},
		{"div-neg", Inst{Op: OpDIV, Rd: 3, Rs1: 1, Rs2: 2}, ^uint64(41), 6, ^uint64(6)}, // -42/6=-7
		{"div-by-zero", Inst{Op: OpDIV, Rd: 3, Rs1: 1, Rs2: 2}, 42, 0, ^uint64(0)},
		{"div-overflow", Inst{Op: OpDIV, Rd: 3, Rs1: 1, Rs2: 2}, 1 << 63, ^uint64(0), 1 << 63},
		{"udiv", Inst{Op: OpUDIV, Rd: 3, Rs1: 1, Rs2: 2}, ^uint64(0), 2, 1<<63 - 1},
		{"udiv-by-zero", Inst{Op: OpUDIV, Rd: 3, Rs1: 1, Rs2: 2}, 42, 0, ^uint64(0)},
		{"rem", Inst{Op: OpREM, Rd: 3, Rs1: 1, Rs2: 2}, 43, 6, 1},
		{"rem-by-zero", Inst{Op: OpREM, Rd: 3, Rs1: 1, Rs2: 2}, 43, 0, 43},
		{"urem", Inst{Op: OpUREM, Rd: 3, Rs1: 1, Rs2: 2}, 43, 6, 1},
		{"slt", Inst{Op: OpSLT, Rd: 3, Rs1: 1, Rs2: 2}, ^uint64(0), 1, 1}, // -1 < 1
		{"sltu", Inst{Op: OpSLTU, Rd: 3, Rs1: 1, Rs2: 2}, ^uint64(0), 1, 0},
		{"seq", Inst{Op: OpSEQ, Rd: 3, Rs1: 1, Rs2: 2}, 9, 9, 1},
		{"popc", Inst{Op: OpPOPC, Rd: 3, Rs1: 1}, 0xff00ff, 0, 16},
		{"clz", Inst{Op: OpCLZ, Rd: 3, Rs1: 1}, 1, 0, 63},
		{"clz-zero", Inst{Op: OpCLZ, Rd: 3, Rs1: 1}, 0, 0, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv()
			env.load(t, tc.in)
			m := env.machine()
			m.X[1], m.X[2] = tc.x1, tc.x2
			run(t, m, 1)
			if m.X[3] != tc.want {
				t.Errorf("x3 = %#x, want %#x", m.X[3], tc.want)
			}
		})
	}
}

func TestImmediatesAndMov(t *testing.T) {
	env := newTestEnv()
	env.load(t,
		Inst{Op: OpMOVZ, Rd: 1, Imm: 0xbeef},         // x1 = 0xbeef
		Inst{Op: OpMOVK, Rd: 1, Imm: 1<<16 | 0xdead}, // x1 = 0xdeadbeef
		Inst{Op: OpMOVZ, Rd: 2, Imm: 3<<16 | 0x8000}, // x2 = 0x8000<<48
		Inst{Op: OpADDI, Rd: 3, Rs1: 1, Imm: -1},     // x3 = x1 - 1
		Inst{Op: OpXORI, Rd: 4, Rs1: 1, Imm: -1},     // x4 = ^x1
		Inst{Op: OpLSLI, Rd: 5, Rs1: 1, Imm: 4},
		Inst{Op: OpSLTI, Rd: 6, Rs1: 1, Imm: ImmIMax},
	)
	m := env.machine()
	run(t, m, 7)
	if m.X[1] != 0xdeadbeef {
		t.Errorf("movz/movk: x1 = %#x", m.X[1])
	}
	if m.X[2] != 0x8000<<48 {
		t.Errorf("movz shifted: x2 = %#x", m.X[2])
	}
	if m.X[3] != 0xdeadbeee {
		t.Errorf("addi -1: x3 = %#x", m.X[3])
	}
	if m.X[4] != ^uint64(0xdeadbeef) {
		t.Errorf("not: x4 = %#x", m.X[4])
	}
	if m.X[5] != 0xdeadbeef<<4 {
		t.Errorf("lsli: x5 = %#x", m.X[5])
	}
	if m.X[6] != 0 {
		t.Errorf("slti: x6 = %d, want 0", m.X[6])
	}
}

func TestZeroRegister(t *testing.T) {
	env := newTestEnv()
	env.load(t,
		Inst{Op: OpMOVZ, Rd: ZeroReg, Imm: 0x1234},
		Inst{Op: OpADD, Rd: 1, Rs1: ZeroReg, Rs2: ZeroReg},
	)
	m := env.machine()
	run(t, m, 2)
	if m.X[ZeroReg] != 0 {
		t.Error("write to xzr must be discarded")
	}
	if m.X[1] != 0 {
		t.Error("xzr must read as zero")
	}
}

func TestFloatingPoint(t *testing.T) {
	env := newTestEnv()
	env.load(t,
		Inst{Op: OpFADD, Rd: 2, Rs1: 0, Rs2: 1},
		Inst{Op: OpFMUL, Rd: 3, Rs1: 0, Rs2: 1},
		Inst{Op: OpFDIV, Rd: 4, Rs1: 0, Rs2: 1},
		Inst{Op: OpFSQRT, Rd: 5, Rs1: 0},
		Inst{Op: OpFNEG, Rd: 6, Rs1: 0},
		Inst{Op: OpFABS, Rd: 7, Rs1: 6},
		Inst{Op: OpFLT, Rd: 1, Rs1: 1, Rs2: 0},
		Inst{Op: OpFCVTZS, Rd: 2, Rs1: 0},
		Inst{Op: OpSCVTF, Rd: 8, Rs1: 3},
		Inst{Op: OpFMIN, Rd: 9, Rs1: 0, Rs2: 1},
		Inst{Op: OpFMAX, Rd: 10, Rs1: 0, Rs2: 1},
	)
	m := env.machine()
	m.WriteF(0, 9.0)
	m.WriteF(1, 2.0)
	m.X[3] = 7
	run(t, m, 11)
	checks := []struct {
		reg  Reg
		want float64
	}{{2, 11}, {3, 18}, {4, 4.5}, {5, 3}, {6, -9}, {7, 9}, {9, 2}, {10, 9}}
	for _, c := range checks {
		if got := m.ReadF(c.reg); got != c.want {
			t.Errorf("f%d = %v, want %v", c.reg, got, c.want)
		}
	}
	if m.X[1] != 1 {
		t.Errorf("flt 2<9: x1 = %d, want 1", m.X[1])
	}
	if m.ReadF(8) != 7.0 {
		t.Errorf("scvtf: f8 = %v, want 7", m.ReadF(8))
	}
}

func TestFCVTZSSaturation(t *testing.T) {
	cases := []struct {
		f    float64
		want int64
	}{
		{3.99, 3}, {-3.99, -3}, {math.NaN(), 0},
		{math.Inf(1), math.MaxInt64}, {math.Inf(-1), math.MinInt64},
		{1e300, math.MaxInt64},
	}
	for _, c := range cases {
		env := newTestEnv()
		env.load(t, Inst{Op: OpFCVTZS, Rd: 1, Rs1: 0})
		m := env.machine()
		m.WriteF(0, c.f)
		run(t, m, 1)
		if int64(m.X[1]) != c.want {
			t.Errorf("fcvtzs(%v) = %d, want %d", c.f, int64(m.X[1]), c.want)
		}
	}
}

func TestLoadsAndStores(t *testing.T) {
	env := newTestEnv()
	env.load(t,
		Inst{Op: OpSTRD, Rd: 1, Rs1: 2, Imm: 8},
		Inst{Op: OpLDRD, Rd: 3, Rs1: 2, Imm: 8},
		Inst{Op: OpLDRB, Rd: 4, Rs1: 2, Imm: 8},
		Inst{Op: OpLDRH, Rd: 5, Rs1: 2, Imm: 8},
		Inst{Op: OpLDRW, Rd: 6, Rs1: 2, Imm: 8},
		Inst{Op: OpSTRB, Rd: 1, Rs1: 2, Imm: 100},
		Inst{Op: OpLDRD, Rd: 7, Rs1: 2, Imm: 100},
	)
	m := env.machine()
	m.X[1] = 0x1122334455667788
	m.X[2] = 0x1000
	dis := run(t, m, 7)
	if m.X[3] != 0x1122334455667788 {
		t.Errorf("ldrd: x3 = %#x", m.X[3])
	}
	if m.X[4] != 0x88 {
		t.Errorf("ldrb zero-extends: x4 = %#x", m.X[4])
	}
	if m.X[5] != 0x7788 {
		t.Errorf("ldrh: x5 = %#x", m.X[5])
	}
	if m.X[6] != 0x55667788 {
		t.Errorf("ldrw: x6 = %#x", m.X[6])
	}
	if m.X[7] != 0x88 {
		t.Errorf("strb writes one byte: x7 = %#x", m.X[7])
	}
	// Dyn records carry the memory operations for the log.
	if dis[0].NMem != 1 || !dis[0].Mem[0].IsStore || dis[0].Mem[0].Addr != 0x1008 {
		t.Errorf("store record wrong: %+v", dis[0].Mem[0])
	}
	if dis[1].NMem != 1 || dis[1].Mem[0].IsStore || dis[1].Mem[0].Val != 0x1122334455667788 {
		t.Errorf("load record wrong: %+v", dis[1].Mem[0])
	}
}

func TestPairOps(t *testing.T) {
	env := newTestEnv()
	env.load(t,
		Inst{Op: OpSTP, Rd: 1, Rs2: 2, Rs1: 3, Imm: 16},
		Inst{Op: OpLDP, Rd: 4, Rs2: 5, Rs1: 3, Imm: 16},
	)
	m := env.machine()
	m.X[1], m.X[2], m.X[3] = 111, 222, 0x2000
	dis := run(t, m, 2)
	if m.X[4] != 111 || m.X[5] != 222 {
		t.Errorf("ldp: x4=%d x5=%d, want 111 222", m.X[4], m.X[5])
	}
	if dis[0].NMem != 2 || dis[1].NMem != 2 {
		t.Fatalf("pair ops must record two mem ops: %d, %d", dis[0].NMem, dis[1].NMem)
	}
	if dis[1].Mem[1].Addr != 0x2000+24 {
		t.Errorf("second pair access addr = %#x", dis[1].Mem[1].Addr)
	}
}

func TestBranches(t *testing.T) {
	// beq taken skips the movz.
	env := newTestEnv()
	env.load(t,
		Inst{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}, // -> pc 8
		Inst{Op: OpMOVZ, Rd: 3, Imm: 1},         // skipped
		Inst{Op: OpMOVZ, Rd: 4, Imm: 2},
	)
	m := env.machine()
	m.X[1], m.X[2] = 7, 7
	dis := run(t, m, 2)
	if !dis[0].Taken || dis[0].NextPC != 8 {
		t.Errorf("beq taken: %+v", dis[0])
	}
	if m.X[3] != 0 || m.X[4] != 2 {
		t.Errorf("branch skipped wrong instructions: x3=%d x4=%d", m.X[3], m.X[4])
	}

	// Not-taken falls through.
	env2 := newTestEnv()
	env2.load(t,
		Inst{Op: OpBNE, Rs1: 1, Rs2: 2, Imm: 8},
		Inst{Op: OpMOVZ, Rd: 3, Imm: 1},
	)
	m2 := env2.machine()
	m2.X[1], m2.X[2] = 7, 7
	dis2 := run(t, m2, 2)
	if dis2[0].Taken {
		t.Error("bne with equal values must not be taken")
	}
	if m2.X[3] != 1 {
		t.Error("fall-through instruction must execute")
	}
}

func TestJalAndJalr(t *testing.T) {
	env := newTestEnv()
	env.load(t,
		Inst{Op: OpJAL, Rd: RegLR, Imm: 8},                // call pc 8
		Inst{Op: OpMOVZ, Rd: 3, Imm: 1},                   // skipped, then return target
		Inst{Op: OpJALR, Rd: ZeroReg, Rs1: RegLR, Imm: 0}, // ret -> pc 4
	)
	m := env.machine()
	run(t, m, 2)
	if m.X[RegLR] != 4 {
		t.Errorf("jal link = %#x, want 4", m.X[RegLR])
	}
	if m.PC != 4 {
		t.Errorf("jalr target = %#x, want 4", m.PC)
	}
	run(t, m, 1)
	if m.X[3] != 1 {
		t.Error("returned-to instruction must have executed")
	}
}

func TestRdtimeIsRecordedAsNonDeterministic(t *testing.T) {
	env := newTestEnv()
	env.time = 12345
	env.load(t, Inst{Op: OpRDTIME, Rd: 1})
	m := env.machine()
	dis := run(t, m, 1)
	if m.X[1] != 12345 {
		t.Errorf("rdtime: x1 = %d", m.X[1])
	}
	if !dis[0].HasNonDet || dis[0].NonDetVal != 12345 {
		t.Errorf("rdtime must be flagged for log forwarding: %+v", dis[0])
	}
}

func TestHaltAndFaults(t *testing.T) {
	env := newTestEnv()
	env.load(t, Inst{Op: OpHLT})
	m := env.machine()
	dis := run(t, m, 5)
	if len(dis) != 1 || !dis[0].Halt || !m.Halted {
		t.Fatal("hlt must halt the machine")
	}
	var di DynInst
	if err := m.Step(&di); err == nil {
		t.Error("step after halt must fail")
	}

	// Fetch outside code is a program fault.
	m2 := newTestEnv().machine()
	m2.PC = 0x9999
	if err := m2.Step(&di); err == nil {
		t.Error("fetch from unmapped pc must fault")
	} else if _, ok := err.(*ProgError); !ok {
		t.Errorf("want *ProgError, got %T", err)
	}
}

func TestPredecodedFetch(t *testing.T) {
	// An image at an unaligned origin holding an undefined word, then
	// hlt: the table covers exactly the word-aligned words inside it.
	hlt, _ := Encode(Inst{Op: OpHLT})
	image := make([]byte, 12) // 0x102-0x10d
	image[6], image[7], image[8], image[9] = byte(hlt), byte(hlt>>8), byte(hlt>>16), byte(hlt>>24)
	p := NewProgram(0x102, 0x102, image, nil)
	if got, want := len(p.code), 2; got != want { // 0x104 and 0x108; 0x10c would overrun
		t.Fatalf("predecoded %d words, want %d", got, want)
	}
	step := func(pc uint64) (*Machine, error) {
		m := &Machine{Prog: p, Env: newTestEnv(), PC: pc}
		var di DynInst
		return m, m.Step(&di)
	}
	for _, c := range []struct {
		pc     uint64
		reason string
	}{
		{0x100, "instruction fetch outside mapped code"}, // below the image
		{0x102, "instruction fetch outside mapped code"}, // in it, but unaligned
		{0x104, "undefined instruction"},
		{0x10c, "instruction fetch outside mapped code"}, // past the end
	} {
		m, err := step(c.pc)
		pe, ok := err.(*ProgError)
		if !ok || pe.Reason != c.reason || pe.PC != c.pc || !m.Halted || m.InstCount != 0 {
			t.Errorf("pc %#x: err %v, halted %v, count %d; want %q", c.pc, err, m.Halted, m.InstCount, c.reason)
		}
	}
	if m, err := step(0x108); err != nil || !m.Halted || m.InstCount != 1 {
		t.Errorf("hlt at 0x108: err %v, halted %v", err, m.Halted)
	}
}

// TestPredecodedOperands: every opcode's table entry carries the
// operands Inst.Dsts and Inst.Srcs report, and Step hands them over.
func TestPredecodedOperands(t *testing.T) {
	var image []byte
	var insts []Inst
	for _, op := range Ops() {
		for _, rd := range []Reg{ZeroReg, 2} {
			in := Inst{Op: op, Rd: rd, Rs1: 4, Rs2: 6}
			w, err := Encode(in)
			if err != nil {
				continue
			}
			if in, err = Decode(w); err != nil {
				t.Fatalf("%s: %v", op.Name(), err)
			}
			image = append(image, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
			insts = append(insts, in)
		}
	}
	if len(insts) < len(Ops()) {
		t.Fatalf("only %d instructions encoded for %d opcodes", len(insts), len(Ops()))
	}
	p := NewProgram(0x1000, 0x1000, image, nil)
	for i, in := range insts {
		pc := 0x1000 + uint64(i)*4
		ops := &p.inst(pc).ops
		if got, want := ops.Dsts(), in.Dsts(nil); !slices.Equal(got, want) {
			t.Errorf("%v: predecoded dsts %v, want %v", in, got, want)
		}
		if got, want := ops.Srcs(), in.Srcs(nil); !slices.Equal(got, want) {
			t.Errorf("%v: predecoded srcs %v, want %v", in, got, want)
		}
		m := &Machine{Prog: p, Env: newTestEnv(), PC: pc}
		var di DynInst
		_ = m.Step(&di) // the record is filled before the op executes; a fault does not matter here
		if di.Ops != ops {
			t.Errorf("%v: Step did not hand over the table's operands", in)
		}
	}
}

func TestSnapshotRestoreDiff(t *testing.T) {
	m := &Machine{}
	m.X[5] = 42
	m.WriteF(3, 2.5)
	m.PC = 0x100
	snap := m.Snapshot()
	m.X[5] = 43
	if d := snap.Diff(m.Snapshot()); d == "" {
		t.Error("diff must report changed register")
	}
	m.Restore(snap)
	if m.X[5] != 42 || m.PC != 0x100 || m.ReadF(3) != 2.5 {
		t.Error("restore must reinstate the snapshot")
	}
	if d := snap.Diff(m.Snapshot()); d != "" {
		t.Errorf("identical snapshots must not diff: %s", d)
	}
}

func TestPostExecHookCanCorruptState(t *testing.T) {
	env := newTestEnv()
	env.load(t,
		Inst{Op: OpMOVZ, Rd: 1, Imm: 10},
		Inst{Op: OpADDI, Rd: 2, Rs1: 1, Imm: 0},
	)
	m := env.machine()
	m.Hooks.PostExec = func(mm *Machine, di *DynInst) {
		if di.Seq == 1 {
			mm.X[1] ^= 1 << 4 // bit flip: the fault injector's mechanism
		}
	}
	run(t, m, 2)
	if m.X[2] != 26 {
		t.Errorf("downstream must consume corrupted value: x2 = %d, want 26", m.X[2])
	}
}

func TestSyscallHook(t *testing.T) {
	env := newTestEnv()
	env.svc = func(m *Machine) { m.X[9] = 77 }
	env.load(t, Inst{Op: OpSVC})
	m := env.machine()
	run(t, m, 1)
	if m.X[9] != 77 {
		t.Error("svc must invoke the environment")
	}
}

func TestDisassemblyIsStable(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}, "add x1, x2, x3"},
		{Inst{Op: OpLDRD, Rd: 1, Rs1: 2, Imm: 8}, "ldrd x1, [x2, 8]"},
		{Inst{Op: OpSTRF, Rd: 3, Rs1: 2, Imm: -8}, "strf f3, [x2, -8]"},
		{Inst{Op: OpFADD, Rd: 1, Rs1: 2, Rs2: 3}, "fadd f1, f2, f3"},
		{Inst{Op: OpBEQ, Rs1: 1, Rs2: 31, Imm: -4}, "beq x1, xzr, -4"},
		{Inst{Op: OpLDP, Rd: 1, Rs2: 2, Rs1: 3, Imm: 16}, "ldp x1, x2, [x3, 16]"},
		{Inst{Op: OpHLT}, "hlt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// BenchmarkStep steps a predecoded five-instruction ALU/branch loop; a
// b.N iteration is one retired instruction.
func BenchmarkStep(b *testing.B) {
	env := newTestEnv()
	env.load(b,
		Inst{Op: OpADDI, Rd: 1, Rs1: 1, Imm: 1},
		Inst{Op: OpXOR, Rd: 2, Rs1: 2, Rs2: 1},
		Inst{Op: OpLSLI, Rd: 3, Rs1: 1, Imm: 3},
		Inst{Op: OpADD, Rd: 4, Rs1: 3, Rs2: 2},
		Inst{Op: OpBNE, Rs1: 1, Rs2: ZeroReg, Imm: -16},
	)
	m := env.machine()
	var di DynInst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(&di); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/instr")
}
