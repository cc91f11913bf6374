package isa

import "testing"

// TestGoldenEncodings pins the binary encoding of representative
// instructions of every format. The encoding is an ABI: assembled
// workloads, the checker cores and the main core must agree on it
// forever, so any change here is a breaking change.
func TestGoldenEncodings(t *testing.T) {
	cases := []struct {
		in   Inst
		want uint32
	}{
		// R format: op | rd<<19 | rs1<<14 | rs2<<9
		{Inst{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}, uint32(OpADD)<<24 | 1<<19 | 2<<14 | 3<<9},
		{Inst{Op: OpMUL, Rd: 31, Rs1: 31, Rs2: 31}, uint32(OpMUL)<<24 | 31<<19 | 31<<14 | 31<<9},
		{Inst{Op: OpFADD, Rd: 7, Rs1: 8, Rs2: 9}, uint32(OpFADD)<<24 | 7<<19 | 8<<14 | 9<<9},
		// R1 format
		{Inst{Op: OpPOPC, Rd: 4, Rs1: 5}, uint32(OpPOPC)<<24 | 4<<19 | 5<<14},
		{Inst{Op: OpRDTIME, Rd: 6}, uint32(OpRDTIME)<<24 | 6<<19},
		// I format, positive and negative immediates
		{Inst{Op: OpADDI, Rd: 1, Rs1: 2, Imm: 5}, uint32(OpADDI)<<24 | 1<<19 | 2<<14 | 5},
		{Inst{Op: OpADDI, Rd: 1, Rs1: 2, Imm: -1}, uint32(OpADDI)<<24 | 1<<19 | 2<<14 | 0x3fff},
		{Inst{Op: OpLDRD, Rd: 3, Rs1: 4, Imm: 8}, uint32(OpLDRD)<<24 | 3<<19 | 4<<14 | 8},
		{Inst{Op: OpSTRB, Rd: 3, Rs1: 4, Imm: -8}, uint32(OpSTRB)<<24 | 3<<19 | 4<<14 | (0x3fff &^ 7)},
		// U format: shift field at [18:17], imm16 at [16:1]
		{Inst{Op: OpMOVZ, Rd: 1, Imm: 0xbeef}, uint32(OpMOVZ)<<24 | 1<<19 | 0xbeef<<1},
		{Inst{Op: OpMOVK, Rd: 1, Imm: 3<<16 | 0x1234}, uint32(OpMOVK)<<24 | 1<<19 | 3<<17 | 0x1234<<1},
		// B format: word-scaled displacement
		{Inst{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -4}, uint32(OpBEQ)<<24 | 1<<19 | 2<<14 | 0x3fff},
		{Inst{Op: OpBNE, Rs1: 1, Rs2: 2, Imm: 8}, uint32(OpBNE)<<24 | 1<<19 | 2<<14 | 2},
		// J format
		{Inst{Op: OpJAL, Rd: 30, Imm: 4}, uint32(OpJAL)<<24 | 30<<19 | 1},
		{Inst{Op: OpJAL, Rd: 0, Imm: -8}, uint32(OpJAL)<<24 | (0x7ffff &^ 1)},
		// P format: 8-byte-scaled offset
		{Inst{Op: OpLDP, Rd: 1, Rs1: 3, Rs2: 2, Imm: 16}, uint32(OpLDP)<<24 | 1<<19 | 3<<14 | 2<<9 | 2},
		{Inst{Op: OpSTP, Rd: 1, Rs1: 3, Rs2: 2, Imm: -8}, uint32(OpSTP)<<24 | 1<<19 | 3<<14 | 2<<9 | 0x1ff},
		// S format
		{Inst{Op: OpNOP}, uint32(OpNOP) << 24},
		{Inst{Op: OpHLT}, uint32(OpHLT) << 24},
		{Inst{Op: OpSVC}, uint32(OpSVC) << 24},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Errorf("Encode(%v): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.in, got, c.want)
		}
	}
}

// TestOpcodeValuesAreStable pins the opcode numbering: assembled binaries
// embed these values.
func TestOpcodeValuesAreStable(t *testing.T) {
	pins := map[Op]uint8{
		OpADD: 1, OpSUB: 2, OpAND: 3, OpORR: 4, OpXOR: 5,
		OpMOVZ: 25, OpMOVK: 26,
		OpHLT: 68, OpSVC: 69,
	}
	for op, want := range pins {
		if uint8(op) != want {
			t.Errorf("opcode %s = %d, pinned at %d (encoding ABI break)", op.Name(), op, want)
		}
	}
}

// TestEveryOpcodeHasCompleteMetadata guards the static tables.
func TestEveryOpcodeHasCompleteMetadata(t *testing.T) {
	for _, op := range Ops() {
		if op.Name() == "" || op.Name() == "invalid" {
			t.Errorf("op %d has no name", op)
		}
		if op.Format() == FmtInvalid {
			t.Errorf("op %s has no format", op.Name())
		}
		mem := op.IsLoad() || op.IsStore()
		if mem && op.MemSize() == 0 {
			t.Errorf("memory op %s has no access size", op.Name())
		}
		if !mem && op.MemSize() != 0 {
			t.Errorf("non-memory op %s has an access size", op.Name())
		}
		if op.IsUncond() && !op.IsBranch() {
			t.Errorf("op %s unconditional but not a branch", op.Name())
		}
	}
}
