// Package isa defines PDX64, the 64-bit RISC instruction set shared by the
// main out-of-order core and the checker cores.
//
// The paper requires only that checker cores "implement the same ISA as the
// main core, so that all cores can execute the same instruction stream"
// (§IV-B); the evaluation uses ARMv8. PDX64 is a compact ARMv8/RISC-V
// hybrid chosen so the whole toolchain (assembler, functional model,
// timing models) can be built from scratch: fixed 32-bit encodings, 31
// general integer registers plus a hard-wired zero, 32 double-precision FP
// registers, compare-and-branch control flow, and two properties the
// detection scheme specifically exercises:
//
//   - LDP/STP are macro-ops that crack into two micro-ops, so the
//     load-store log must never split a macro-op across segments (§IV-D).
//   - RDTIME is non-deterministic, so its result must be forwarded through
//     the log to the checkers like load data (§IV-D).
package isa

import "fmt"

// Reg names one register within either register file; the file (integer
// or floating-point) is determined by the instruction.
type Reg uint8

// Register-file sizes. Integer register 31 is the hard-wired zero (XZR).
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	ZeroReg    = Reg(31)

	// Software conventions used by the assembler and workloads.
	RegSP = Reg(29) // stack pointer
	RegLR = Reg(30) // link register
)

// Op enumerates every PDX64 opcode.
type Op uint8

const (
	OpInvalid Op = iota

	// Integer register-register arithmetic (R format).
	OpADD
	OpSUB
	OpAND
	OpORR
	OpXOR
	OpLSL
	OpLSR
	OpASR
	OpMUL
	OpDIV  // signed; x/0 = -1, MinInt64/-1 = MinInt64 (RISC-V semantics)
	OpUDIV // unsigned; x/0 = 2^64-1
	OpREM  // signed;  x%0 = x
	OpUREM // unsigned; x%0 = x
	OpSLT  // rd = (rs1 <s rs2) ? 1 : 0
	OpSLTU
	OpSEQ // rd = (rs1 == rs2) ? 1 : 0

	// Integer register-immediate arithmetic (I format).
	OpADDI
	OpANDI
	OpORRI
	OpXORI
	OpLSLI
	OpLSRI
	OpASRI
	OpSLTI

	// Wide-constant construction (U format): rd = imm16 << (16*shift)
	// (MOVZ) or insert imm16 at that position (MOVK).
	OpMOVZ
	OpMOVK

	// Single-register unary ops (R1 format).
	OpPOPC   // population count
	OpCLZ    // count leading zeros (64 for zero input)
	OpFSQRT  // fp
	OpFNEG   // fp
	OpFABS   // fp
	OpFMOV   // fp <- fp register move
	OpFCVTZS // int <- fp, truncate toward zero, saturating
	OpSCVTF  // fp <- int (signed)
	OpFMOVFX // fp bits <- int bits
	OpFMOVXF // int bits <- fp bits
	OpRDTIME // rd <- current cycle/time source; non-deterministic

	// Floating-point register-register arithmetic (R format, FP files).
	OpFADD
	OpFSUB
	OpFMUL
	OpFDIV
	OpFMIN
	OpFMAX
	// FP comparisons write an integer register (R format, mixed files).
	OpFEQ
	OpFLT
	OpFLE

	// Loads (I format): rd <- mem[rs1 + imm]; B/H/W zero-extend.
	OpLDRB
	OpLDRH
	OpLDRW
	OpLDRD
	OpLDRF // loads 8 bytes into an FP register

	// Stores (I format, rd is the data source): mem[rs1 + imm] <- rd.
	OpSTRB
	OpSTRH
	OpSTRW
	OpSTRD
	OpSTRF // stores 8 bytes from an FP register

	// Macro-op pairs (P format): two consecutive 8-byte accesses at
	// rs1 + imm and rs1 + imm + 8. These crack into two micro-ops.
	OpLDP
	OpSTP

	// Control flow. Conditional branches are B format (two sources,
	// word-scaled displacement); JAL is J format; JALR is I format.
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpJAL
	OpJALR

	// System (S format).
	OpNOP
	OpHLT // halt the program
	OpSVC // environment call: semantics provided by the Env

	opMax // sentinel; keep last
)

// Format identifies the encoding layout of an opcode.
type Format uint8

const (
	FmtInvalid Format = iota
	FmtR              // op rd, rs1, rs2
	FmtR1             // op rd, rs1
	FmtI              // op rd, rs1, imm14
	FmtU              // op rd, imm16, shift
	FmtB              // op rs1, rs2, imm14 (word-scaled)
	FmtJ              // op rd, imm19 (word-scaled)
	FmtP              // op rd, rd2, rs1, imm9 (8-byte-scaled)
	FmtS              // op (no operands)
)

// opInfo is the static description of an opcode used by the decoder,
// disassembler, functional model and timing models.
type opInfo struct {
	name   string
	format Format
	// Register-file classes. A load's destination class depends on the
	// opcode (LDRF writes FP); a store's "rd" is a source.
	fpDst    bool // destination is an FP register
	fpSrc1   bool // rs1 is FP
	fpSrc2   bool // rs2 (or store data / pair second) is FP
	isLoad   bool
	isStore  bool
	isBranch bool // conditional branch or jump
	isUncond bool // unconditional control transfer (JAL/JALR)
	class    Class
}

// Class groups opcodes by execution resource, used by the timing models to
// pick functional units and latencies.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassFPALU
	ClassFPMul
	ClassFPDiv // also FSQRT
	ClassLoad
	ClassStore
	ClassBranch
	ClassSystem
)

var opTable = [opMax]opInfo{
	OpInvalid: {name: "invalid", format: FmtInvalid, class: ClassNop},

	OpADD:  {name: "add", format: FmtR, class: ClassIntALU},
	OpSUB:  {name: "sub", format: FmtR, class: ClassIntALU},
	OpAND:  {name: "and", format: FmtR, class: ClassIntALU},
	OpORR:  {name: "orr", format: FmtR, class: ClassIntALU},
	OpXOR:  {name: "xor", format: FmtR, class: ClassIntALU},
	OpLSL:  {name: "lsl", format: FmtR, class: ClassIntALU},
	OpLSR:  {name: "lsr", format: FmtR, class: ClassIntALU},
	OpASR:  {name: "asr", format: FmtR, class: ClassIntALU},
	OpMUL:  {name: "mul", format: FmtR, class: ClassIntMul},
	OpDIV:  {name: "div", format: FmtR, class: ClassIntDiv},
	OpUDIV: {name: "udiv", format: FmtR, class: ClassIntDiv},
	OpREM:  {name: "rem", format: FmtR, class: ClassIntDiv},
	OpUREM: {name: "urem", format: FmtR, class: ClassIntDiv},
	OpSLT:  {name: "slt", format: FmtR, class: ClassIntALU},
	OpSLTU: {name: "sltu", format: FmtR, class: ClassIntALU},
	OpSEQ:  {name: "seq", format: FmtR, class: ClassIntALU},

	OpADDI: {name: "addi", format: FmtI, class: ClassIntALU},
	OpANDI: {name: "andi", format: FmtI, class: ClassIntALU},
	OpORRI: {name: "orri", format: FmtI, class: ClassIntALU},
	OpXORI: {name: "xori", format: FmtI, class: ClassIntALU},
	OpLSLI: {name: "lsli", format: FmtI, class: ClassIntALU},
	OpLSRI: {name: "lsri", format: FmtI, class: ClassIntALU},
	OpASRI: {name: "asri", format: FmtI, class: ClassIntALU},
	OpSLTI: {name: "slti", format: FmtI, class: ClassIntALU},

	OpMOVZ: {name: "movz", format: FmtU, class: ClassIntALU},
	OpMOVK: {name: "movk", format: FmtU, class: ClassIntALU},

	OpPOPC:   {name: "popc", format: FmtR1, class: ClassIntALU},
	OpCLZ:    {name: "clz", format: FmtR1, class: ClassIntALU},
	OpFSQRT:  {name: "fsqrt", format: FmtR1, fpDst: true, fpSrc1: true, class: ClassFPDiv},
	OpFNEG:   {name: "fneg", format: FmtR1, fpDst: true, fpSrc1: true, class: ClassFPALU},
	OpFABS:   {name: "fabs", format: FmtR1, fpDst: true, fpSrc1: true, class: ClassFPALU},
	OpFMOV:   {name: "fmov", format: FmtR1, fpDst: true, fpSrc1: true, class: ClassFPALU},
	OpFCVTZS: {name: "fcvtzs", format: FmtR1, fpSrc1: true, class: ClassFPALU},
	OpSCVTF:  {name: "scvtf", format: FmtR1, fpDst: true, class: ClassFPALU},
	OpFMOVFX: {name: "fmovfx", format: FmtR1, fpDst: true, class: ClassIntALU},
	OpFMOVXF: {name: "fmovxf", format: FmtR1, fpSrc1: true, class: ClassIntALU},
	OpRDTIME: {name: "rdtime", format: FmtR1, class: ClassSystem},

	OpFADD: {name: "fadd", format: FmtR, fpDst: true, fpSrc1: true, fpSrc2: true, class: ClassFPALU},
	OpFSUB: {name: "fsub", format: FmtR, fpDst: true, fpSrc1: true, fpSrc2: true, class: ClassFPALU},
	OpFMUL: {name: "fmul", format: FmtR, fpDst: true, fpSrc1: true, fpSrc2: true, class: ClassFPMul},
	OpFDIV: {name: "fdiv", format: FmtR, fpDst: true, fpSrc1: true, fpSrc2: true, class: ClassFPDiv},
	OpFMIN: {name: "fmin", format: FmtR, fpDst: true, fpSrc1: true, fpSrc2: true, class: ClassFPALU},
	OpFMAX: {name: "fmax", format: FmtR, fpDst: true, fpSrc1: true, fpSrc2: true, class: ClassFPALU},
	OpFEQ:  {name: "feq", format: FmtR, fpSrc1: true, fpSrc2: true, class: ClassFPALU},
	OpFLT:  {name: "flt", format: FmtR, fpSrc1: true, fpSrc2: true, class: ClassFPALU},
	OpFLE:  {name: "fle", format: FmtR, fpSrc1: true, fpSrc2: true, class: ClassFPALU},

	OpLDRB: {name: "ldrb", format: FmtI, isLoad: true, class: ClassLoad},
	OpLDRH: {name: "ldrh", format: FmtI, isLoad: true, class: ClassLoad},
	OpLDRW: {name: "ldrw", format: FmtI, isLoad: true, class: ClassLoad},
	OpLDRD: {name: "ldrd", format: FmtI, isLoad: true, class: ClassLoad},
	OpLDRF: {name: "ldrf", format: FmtI, isLoad: true, fpDst: true, class: ClassLoad},

	OpSTRB: {name: "strb", format: FmtI, isStore: true, class: ClassStore},
	OpSTRH: {name: "strh", format: FmtI, isStore: true, class: ClassStore},
	OpSTRW: {name: "strw", format: FmtI, isStore: true, class: ClassStore},
	OpSTRD: {name: "strd", format: FmtI, isStore: true, class: ClassStore},
	OpSTRF: {name: "strf", format: FmtI, isStore: true, fpSrc2: true, class: ClassStore},

	OpLDP: {name: "ldp", format: FmtP, isLoad: true, class: ClassLoad},
	OpSTP: {name: "stp", format: FmtP, isStore: true, class: ClassStore},

	OpBEQ:  {name: "beq", format: FmtB, isBranch: true, class: ClassBranch},
	OpBNE:  {name: "bne", format: FmtB, isBranch: true, class: ClassBranch},
	OpBLT:  {name: "blt", format: FmtB, isBranch: true, class: ClassBranch},
	OpBGE:  {name: "bge", format: FmtB, isBranch: true, class: ClassBranch},
	OpBLTU: {name: "bltu", format: FmtB, isBranch: true, class: ClassBranch},
	OpBGEU: {name: "bgeu", format: FmtB, isBranch: true, class: ClassBranch},
	OpJAL:  {name: "jal", format: FmtJ, isBranch: true, isUncond: true, class: ClassBranch},
	OpJALR: {name: "jalr", format: FmtI, isBranch: true, isUncond: true, class: ClassBranch},

	OpNOP: {name: "nop", format: FmtS, class: ClassNop},
	OpHLT: {name: "hlt", format: FmtS, class: ClassSystem},
	OpSVC: {name: "svc", format: FmtS, class: ClassSystem},
}

// Name reports the assembler mnemonic.
func (op Op) Name() string {
	if op >= opMax {
		return "invalid"
	}
	return opTable[op].name
}

// Format reports the encoding format.
func (op Op) Format() Format {
	if op >= opMax {
		return FmtInvalid
	}
	return opTable[op].format
}

// Class reports the execution-resource class.
func (op Op) Class() Class {
	if op >= opMax {
		return ClassNop
	}
	return opTable[op].class
}

// IsLoad reports whether the op reads data memory.
func (op Op) IsLoad() bool { return op < opMax && opTable[op].isLoad }

// IsStore reports whether the op writes data memory.
func (op Op) IsStore() bool { return op < opMax && opTable[op].isStore }

// IsBranch reports whether the op can redirect control flow.
func (op Op) IsBranch() bool { return op < opMax && opTable[op].isBranch }

// IsUncond reports whether the op is an unconditional control transfer.
func (op Op) IsUncond() bool { return op < opMax && opTable[op].isUncond }

// MicroOps reports how many micro-ops the (macro-)op cracks into. Only the
// pair ops crack; everything else is a single micro-op (§IV-D).
func (op Op) MicroOps() int {
	if op == OpLDP || op == OpSTP {
		return 2
	}
	return 1
}

// Inst is one decoded instruction.
type Inst struct {
	Op  Op
	Rd  Reg // destination, store-data source, or pair first register
	Rs1 Reg // first source / base address
	Rs2 Reg // second source / pair second register
	Imm int64
}

// RegRef identifies one register with its file.
type RegRef struct {
	FP  bool
	Idx Reg
}

// Dsts appends the destination registers of the instruction to buf and
// returns it. The integer zero register is excluded (writes to it are
// discarded, so there is no dependence to track).
func (in Inst) Dsts(buf []RegRef) []RegRef {
	info := &opTable[in.Op]
	switch info.format {
	case FmtR, FmtR1, FmtI, FmtU, FmtJ:
		if info.isStore {
			return buf // store "rd" is a source
		}
		if in.Op == OpBEQ { // unreachable; branches are FmtB
			return buf
		}
		if !info.fpDst && in.Rd == ZeroReg {
			return buf
		}
		return append(buf, RegRef{FP: info.fpDst, Idx: in.Rd})
	case FmtP:
		if in.Op == OpLDP {
			if in.Rd != ZeroReg {
				buf = append(buf, RegRef{Idx: in.Rd})
			}
			if in.Rs2 != ZeroReg {
				buf = append(buf, RegRef{Idx: in.Rs2})
			}
		}
		return buf
	default:
		return buf
	}
}

// Srcs appends the source registers of the instruction to buf and returns
// it. The integer zero register is excluded.
func (in Inst) Srcs(buf []RegRef) []RegRef {
	info := &opTable[in.Op]
	addInt := func(r Reg) {
		if r != ZeroReg {
			buf = append(buf, RegRef{Idx: r})
		}
	}
	addFP := func(r Reg) { buf = append(buf, RegRef{FP: true, Idx: r}) }
	switch info.format {
	case FmtR:
		if info.fpSrc1 {
			addFP(in.Rs1)
		} else {
			addInt(in.Rs1)
		}
		if info.fpSrc2 {
			addFP(in.Rs2)
		} else {
			addInt(in.Rs2)
		}
	case FmtR1:
		if in.Op == OpRDTIME {
			break
		}
		if info.fpSrc1 {
			addFP(in.Rs1)
		} else {
			addInt(in.Rs1)
		}
	case FmtI:
		addInt(in.Rs1) // base address or ALU source
		if info.isStore {
			if info.fpSrc2 {
				addFP(in.Rd)
			} else {
				addInt(in.Rd)
			}
		}
	case FmtU:
		if in.Op == OpMOVK {
			addInt(in.Rd) // MOVK merges into the existing value
		}
	case FmtB:
		addInt(in.Rs1)
		addInt(in.Rs2)
	case FmtP:
		addInt(in.Rs1)
		if in.Op == OpSTP {
			addInt(in.Rd)
			addInt(in.Rs2)
		}
	}
	return buf
}

// MemSize reports the access width in bytes for load/store ops (8 for the
// pair ops' individual micro-ops), or 0 for non-memory ops.
func (op Op) MemSize() uint8 {
	switch op {
	case OpLDRB, OpSTRB:
		return 1
	case OpLDRH, OpSTRH:
		return 2
	case OpLDRW, OpSTRW:
		return 4
	case OpLDRD, OpSTRD, OpLDRF, OpSTRF, OpLDP, OpSTP:
		return 8
	default:
		return 0
	}
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	info := &opTable[in.Op]
	x := func(r Reg) string {
		if r == ZeroReg {
			return "xzr"
		}
		return fmt.Sprintf("x%d", r)
	}
	f := func(r Reg) string { return fmt.Sprintf("f%d", r) }
	rd := x(in.Rd)
	if info.fpDst || (info.isStore && info.fpSrc2) {
		rd = f(in.Rd)
	}
	rs1 := x(in.Rs1)
	if info.fpSrc1 {
		rs1 = f(in.Rs1)
	}
	rs2 := x(in.Rs2)
	if info.fpSrc2 && !info.isStore {
		rs2 = f(in.Rs2)
	}
	switch info.format {
	case FmtR:
		return fmt.Sprintf("%s %s, %s, %s", info.name, rd, rs1, rs2)
	case FmtR1:
		if in.Op == OpRDTIME {
			return fmt.Sprintf("%s %s", info.name, rd)
		}
		return fmt.Sprintf("%s %s, %s", info.name, rd, rs1)
	case FmtI:
		if info.isLoad || info.isStore {
			return fmt.Sprintf("%s %s, [%s, %d]", info.name, rd, rs1, in.Imm)
		}
		if in.Op == OpJALR {
			return fmt.Sprintf("%s %s, %s, %d", info.name, rd, rs1, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %d", info.name, rd, rs1, in.Imm)
	case FmtU:
		shift := in.Imm >> 16 & 3
		return fmt.Sprintf("%s %s, %d, lsl %d", info.name, rd, in.Imm&0xffff, shift*16)
	case FmtB:
		return fmt.Sprintf("%s %s, %s, %d", info.name, x(in.Rs1), x(in.Rs2), in.Imm)
	case FmtJ:
		return fmt.Sprintf("%s %s, %d", info.name, rd, in.Imm)
	case FmtP:
		return fmt.Sprintf("%s %s, %s, [%s, %d]", info.name, x(in.Rd), x(in.Rs2), rs1, in.Imm)
	case FmtS:
		return info.name
	default:
		return "invalid"
	}
}

// OpByName looks up an opcode by its assembler mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, opMax)
	for op := Op(1); op < opMax; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// Ops returns every valid opcode, for exhaustive tests.
func Ops() []Op {
	out := make([]Op, 0, opMax-1)
	for op := Op(1); op < opMax; op++ {
		out = append(out, op)
	}
	return out
}
