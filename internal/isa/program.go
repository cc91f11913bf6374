package isa

// Program is a loadable memory image produced by the assembler, with its
// instruction words decoded once. It is read-only after NewProgram, so
// every Machine that steps it — the main core's oracle, the checker
// cores, a lockstep shadow — and every goroutine of a campaign can share
// one Program.
type Program struct {
	// Entry is the initial PC (the `_start` label, or the image origin).
	Entry uint64
	// Origin and Image describe one contiguous segment.
	Origin uint64
	Image  []byte
	// Symbols maps labels to addresses.
	Symbols map[string]uint64

	// code holds the decoded instruction and its register operands at
	// every word-aligned address of the image, starting at codeBase; a
	// word that does not decode is OpInvalid. The instruction stream is
	// read-only (§IV-A), so the table never goes stale.
	code     []decoded
	codeBase uint64
}

// decoded is one entry of a Program's instruction table.
type decoded struct {
	Inst
	ops Operands
}

// Operands holds an instruction's register operands, as Inst.Dsts and
// Inst.Srcs report them. A Program resolves them once per instruction
// word, and Step hands them over in DynInst.Ops.
type Operands struct {
	dst        [2]RegRef
	src        [3]RegRef
	nDst, nSrc uint8
}

// Dsts returns the destination registers (see Inst.Dsts). The slice is
// shared: callers must not modify it.
func (o *Operands) Dsts() []RegRef { return o.dst[:o.nDst] }

// Srcs returns the source registers (see Inst.Srcs). The slice is
// shared: callers must not modify it.
func (o *Operands) Srcs() []RegRef { return o.src[:o.nSrc] }

// NewProgram builds a program over image loaded at origin and decodes
// every word-aligned instruction word in it.
func NewProgram(entry, origin uint64, image []byte, symbols map[string]uint64) *Program {
	p := &Program{Entry: entry, Origin: origin, Image: image, Symbols: symbols}
	p.codeBase = (origin + 3) &^ 3
	if end := p.End(); p.codeBase < end {
		p.code = make([]decoded, (end-p.codeBase)/4)
	}
	for i := range p.code {
		d := &p.code[i]
		w, _ := p.Word(p.codeBase + uint64(i)*4)
		d.Inst, _ = decode(w) // an invalid word decodes to OpInvalid
		d.ops.nDst = uint8(len(d.Dsts(d.ops.dst[:0])))
		d.ops.nSrc = uint8(len(d.Srcs(d.ops.src[:0])))
	}
	return p
}

// End reports the first address past the image.
func (p *Program) End() uint64 { return p.Origin + uint64(len(p.Image)) }

// Word reads the 32-bit little-endian word at addr, if within the image.
func (p *Program) Word(addr uint64) (uint32, bool) {
	if addr < p.Origin || addr+4 > p.End() || addr%4 != 0 {
		return 0, false
	}
	off := addr - p.Origin
	b := p.Image[off : off+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, true
}

// inst returns the predecoded instruction at pc, or nil when pc is not a
// word-aligned address inside the image (the fetch faults).
func (p *Program) inst(pc uint64) *decoded {
	i := (pc - p.codeBase) / 4 // wraps to out of range below codeBase
	if pc%4 != 0 || i >= uint64(len(p.code)) {
		return nil
	}
	return &p.code[i]
}
