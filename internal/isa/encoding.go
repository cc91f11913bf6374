package isa

import "fmt"

// PDX64 instructions are fixed 32-bit words with the opcode in the top
// byte. Field layout by format (bit ranges inclusive):
//
//	R:  op[31:24] rd[23:19] rs1[18:14] rs2[13:9]  -[8:0]
//	R1: op[31:24] rd[23:19] rs1[18:14]            -[13:0]
//	I:  op[31:24] rd[23:19] rs1[18:14] imm14[13:0]        (bytes, signed)
//	U:  op[31:24] rd[23:19] sh[18:17]  imm16[16:1] -[0]
//	B:  op[31:24] rs1[23:19] rs2[18:14] imm14[13:0]       (words, signed)
//	J:  op[31:24] rd[23:19] imm19[18:0]                   (words, signed)
//	P:  op[31:24] rd[23:19] rs1[18:14] rd2[13:9] imm9[8:0] (8-byte units, signed)
//	S:  op[31:24]                      -[23:0]
//
// Inst.Imm always holds the semantic byte value: branch/jump displacements
// in bytes (word-aligned), pair offsets in bytes (8-byte aligned).

// Immediate ranges, exported for the assembler's error checking.
const (
	ImmIMin = -(1 << 13)     // I-format immediate, bytes
	ImmIMax = 1<<13 - 1      //
	ImmBMin = -(1 << 13) * 4 // B-format displacement, bytes
	ImmBMax = (1<<13 - 1) * 4
	ImmJMin = -(1 << 18) * 4 // J-format displacement, bytes
	ImmJMax = (1<<18 - 1) * 4
	ImmPMin = -(1 << 8) * 8 // P-format offset, bytes
	ImmPMax = (1<<8 - 1) * 8
)

// EncodeError reports an unencodable instruction.
type EncodeError struct {
	Inst   Inst
	Reason string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %q: %s", e.Inst.String(), e.Reason)
}

// DecodeError reports an invalid instruction word.
type DecodeError struct {
	Word uint32
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: invalid instruction word %#08x", e.Word)
}

func signedFits(v int64, bits uint) bool {
	min := int64(-1) << (bits - 1)
	max := int64(1)<<(bits-1) - 1
	return v >= min && v <= max
}

// Encode packs an instruction into its 32-bit word.
func Encode(in Inst) (uint32, error) {
	if in.Op == OpInvalid || in.Op >= opMax {
		return 0, &EncodeError{in, "invalid opcode"}
	}
	if in.Rd >= 32 || in.Rs1 >= 32 || in.Rs2 >= 32 {
		return 0, &EncodeError{in, "register out of range"}
	}
	w := uint32(in.Op) << 24
	switch in.Op.Format() {
	case FmtR:
		w |= uint32(in.Rd)<<19 | uint32(in.Rs1)<<14 | uint32(in.Rs2)<<9
	case FmtR1:
		w |= uint32(in.Rd)<<19 | uint32(in.Rs1)<<14
	case FmtI:
		if !signedFits(in.Imm, 14) {
			return 0, &EncodeError{in, "immediate out of 14-bit range"}
		}
		w |= uint32(in.Rd)<<19 | uint32(in.Rs1)<<14 | uint32(in.Imm)&0x3fff
	case FmtU:
		sh := in.Imm >> 16
		val := in.Imm & 0xffff
		if sh < 0 || sh > 3 {
			return 0, &EncodeError{in, "shift out of range"}
		}
		w |= uint32(in.Rd)<<19 | uint32(sh)<<17 | uint32(val)<<1
	case FmtB:
		if in.Imm%4 != 0 {
			return 0, &EncodeError{in, "branch displacement not word-aligned"}
		}
		words := in.Imm / 4
		if !signedFits(words, 14) {
			return 0, &EncodeError{in, "branch displacement out of range"}
		}
		w |= uint32(in.Rs1)<<19 | uint32(in.Rs2)<<14 | uint32(words)&0x3fff
	case FmtJ:
		if in.Imm%4 != 0 {
			return 0, &EncodeError{in, "jump displacement not word-aligned"}
		}
		words := in.Imm / 4
		if !signedFits(words, 19) {
			return 0, &EncodeError{in, "jump displacement out of range"}
		}
		w |= uint32(in.Rd)<<19 | uint32(words)&0x7ffff
	case FmtP:
		if in.Imm%8 != 0 {
			return 0, &EncodeError{in, "pair offset not 8-byte aligned"}
		}
		units := in.Imm / 8
		if !signedFits(units, 9) {
			return 0, &EncodeError{in, "pair offset out of range"}
		}
		w |= uint32(in.Rd)<<19 | uint32(in.Rs1)<<14 | uint32(in.Rs2)<<9 | uint32(units)&0x1ff
	case FmtS:
		// opcode only
	default:
		return 0, &EncodeError{in, "invalid format"}
	}
	return w, nil
}

func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// Decode unpacks a 32-bit word into an instruction.
func Decode(w uint32) (Inst, error) {
	in, ok := decode(w)
	if !ok {
		return Inst{}, &DecodeError{w}
	}
	return in, nil
}

// decode is Decode without the error value, so predecoding an image full
// of data words allocates nothing; an invalid word yields Inst{} (OpInvalid).
func decode(w uint32) (Inst, bool) {
	op := Op(w >> 24)
	if op == OpInvalid || op >= opMax {
		return Inst{}, false
	}
	in := Inst{Op: op}
	switch op.Format() {
	case FmtR:
		in.Rd = Reg(w >> 19 & 31)
		in.Rs1 = Reg(w >> 14 & 31)
		in.Rs2 = Reg(w >> 9 & 31)
	case FmtR1:
		in.Rd = Reg(w >> 19 & 31)
		in.Rs1 = Reg(w >> 14 & 31)
	case FmtI:
		in.Rd = Reg(w >> 19 & 31)
		in.Rs1 = Reg(w >> 14 & 31)
		in.Imm = signExtend(w&0x3fff, 14)
	case FmtU:
		in.Rd = Reg(w >> 19 & 31)
		sh := int64(w >> 17 & 3)
		val := int64(w >> 1 & 0xffff)
		in.Imm = sh<<16 | val
	case FmtB:
		in.Rs1 = Reg(w >> 19 & 31)
		in.Rs2 = Reg(w >> 14 & 31)
		in.Imm = signExtend(w&0x3fff, 14) * 4
	case FmtJ:
		in.Rd = Reg(w >> 19 & 31)
		in.Imm = signExtend(w&0x7ffff, 19) * 4
	case FmtP:
		in.Rd = Reg(w >> 19 & 31)
		in.Rs1 = Reg(w >> 14 & 31)
		in.Rs2 = Reg(w >> 9 & 31)
		in.Imm = signExtend(w&0x1ff, 9) * 8
	case FmtS:
		// opcode only
	default:
		return Inst{}, false
	}
	return in, true
}
