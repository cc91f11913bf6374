// Package asm implements a two-pass assembler for PDX64. It exists so the
// workloads, examples and tests can be written as readable assembly rather
// than hand-encoded words; the paper's evaluation runs compiled ARMv8
// binaries and this is the equivalent front door for our ISA.
//
// Syntax summary:
//
//	; comment   // comment   # comment
//	label:
//	_start:                         ; entry point (optional)
//	    addi  x1, x2, -5
//	    ldrd  x3, [x4, 16]
//	    ldp   x5, x6, [x7]          ; macro-op pair
//	    movz  x1, 0x1234, lsl 16
//	    beq   x1, xzr, label
//	    li    x1, 0x123456789abc    ; pseudo: minimal movz/movk sequence
//	    la    x2, table             ; pseudo: address of label (2 insts)
//	    lif   f0, x9, 3.25          ; pseudo: float64 constant via x9
//	    b     loop                  ; pseudo: jal xzr, loop
//	    call  fn                    ; pseudo: jal lr, fn
//	    ret                         ; pseudo: jalr xzr, lr, 0
//	.equ   N, 4096
//	table: .dword 1, 2, label
//	vals:  .double 0.5, 1.5
//	buf:   .space 256
//	       .align 8
//
// Registers: x0-x30, xzr, sp (=x29), lr (=x30), f0-f31.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"paradet/internal/isa"
)

// DefaultOrigin is the load address of assembled images.
const DefaultOrigin = 0x10000

// Error is an assembly diagnostic with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble assembles source into a Program at DefaultOrigin.
func Assemble(src string) (*isa.Program, error) {
	return AssembleAt(src, DefaultOrigin)
}

// AssembleAt assembles source at the given origin.
func AssembleAt(src string, origin uint64) (*isa.Program, error) {
	a := &assembler{origin: origin, symbols: make(map[string]uint64)}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

type stmtKind uint8

const (
	kindInst stmtKind = iota
	kindData
)

type stmt struct {
	line     int
	addr     uint64
	kind     stmtKind
	mnemonic string
	operands []string
	size     uint64
	// data payload for directives whose bytes are known at pass 1
	data []byte
	// deferred word-sized values that may reference labels (.dword sym)
	deferred []string
	elemSize uint64
}

type assembler struct {
	origin  uint64
	symbols map[string]uint64
	stmts   []stmt
	loc     uint64
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// pass1 parses, sizes every statement and assigns addresses/labels.
func (a *assembler) pass1(src string) error {
	a.loc = a.origin
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		text := stripComment(raw)
		// Peel off any labels ("foo: bar: insn" is legal).
		for {
			trimmed := strings.TrimSpace(text)
			idx := strings.Index(trimmed, ":")
			if idx <= 0 || strings.ContainsAny(trimmed[:idx], " \t[,") {
				text = trimmed
				break
			}
			name := trimmed[:idx]
			if !isIdent(name) {
				return a.errf(line, "invalid label %q", name)
			}
			if _, dup := a.symbols[name]; dup {
				return a.errf(line, "duplicate symbol %q", name)
			}
			a.symbols[name] = a.loc
			text = trimmed[idx+1:]
		}
		if text == "" {
			continue
		}
		mnemonic, rest := splitMnemonic(text)
		ops := splitOperands(rest)

		if strings.HasPrefix(mnemonic, ".") {
			if err := a.directive(line, mnemonic, ops); err != nil {
				return err
			}
			continue
		}

		size, err := a.instSize(line, mnemonic, ops)
		if err != nil {
			return err
		}
		a.stmts = append(a.stmts, stmt{
			line: line, addr: a.loc, kind: kindInst,
			mnemonic: mnemonic, operands: ops, size: size,
		})
		a.loc += size
	}
	return nil
}

func (a *assembler) directive(line int, name string, ops []string) error {
	switch name {
	case ".equ":
		if len(ops) != 2 || !isIdent(ops[0]) {
			return a.errf(line, ".equ needs a name and a constant")
		}
		v, err := a.parseIntNoSyms(line, ops[1])
		if err != nil {
			return err
		}
		if _, dup := a.symbols[ops[0]]; dup {
			return a.errf(line, "duplicate symbol %q", ops[0])
		}
		a.symbols[ops[0]] = uint64(v)
		return nil
	case ".align":
		if len(ops) != 1 {
			return a.errf(line, ".align needs one operand")
		}
		n, err := a.parseIntNoSyms(line, ops[0])
		if err != nil {
			return err
		}
		if n <= 0 || n&(n-1) != 0 {
			return a.errf(line, ".align needs a power of two")
		}
		pad := (uint64(n) - a.loc%uint64(n)) % uint64(n)
		if pad > 0 {
			a.stmts = append(a.stmts, stmt{
				line: line, addr: a.loc, kind: kindData, data: make([]byte, pad), size: pad,
			})
			a.loc += pad
		}
		return nil
	case ".space":
		if len(ops) < 1 || len(ops) > 2 {
			return a.errf(line, ".space needs a size and optional fill")
		}
		n, err := a.parseIntNoSyms(line, ops[0])
		if err != nil {
			return err
		}
		if n < 0 {
			return a.errf(line, ".space size must be non-negative")
		}
		fill := byte(0)
		if len(ops) == 2 {
			f, err := a.parseIntNoSyms(line, ops[1])
			if err != nil {
				return err
			}
			fill = byte(f)
		}
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = fill
		}
		a.stmts = append(a.stmts, stmt{line: line, addr: a.loc, kind: kindData, data: buf, size: uint64(n)})
		a.loc += uint64(n)
		return nil
	case ".byte", ".half", ".word", ".dword":
		elem := map[string]uint64{".byte": 1, ".half": 2, ".word": 4, ".dword": 8}[name]
		if len(ops) == 0 {
			return a.errf(line, "%s needs at least one value", name)
		}
		st := stmt{
			line: line, addr: a.loc, kind: kindData,
			deferred: ops, elemSize: elem, size: elem * uint64(len(ops)),
		}
		a.stmts = append(a.stmts, st)
		a.loc += st.size
		return nil
	case ".double":
		if len(ops) == 0 {
			return a.errf(line, ".double needs at least one value")
		}
		buf := make([]byte, 0, 8*len(ops))
		for _, op := range ops {
			f, err := strconv.ParseFloat(op, 64)
			if err != nil {
				return a.errf(line, "bad float %q", op)
			}
			buf = appendU64(buf, floatBits(f))
		}
		a.stmts = append(a.stmts, stmt{line: line, addr: a.loc, kind: kindData, data: buf, size: uint64(len(buf))})
		a.loc += uint64(len(buf))
		return nil
	default:
		return a.errf(line, "unknown directive %q", name)
	}
}

// instSize reports the encoded size of one (possibly pseudo) instruction.
func (a *assembler) instSize(line int, mnemonic string, ops []string) (uint64, error) {
	switch mnemonic {
	case "li":
		if len(ops) != 2 {
			return 0, a.errf(line, "li needs a register and a constant")
		}
		v, err := a.parseIntNoSyms(line, ops[1])
		if err != nil {
			// May be an .equ defined earlier in the file.
			if sv, ok := a.symbols[ops[1]]; ok {
				v = int64(sv)
			} else {
				return 0, err
			}
		}
		return 4 * uint64(len(liChunks(uint64(v)))), nil
	case "lif":
		if len(ops) != 3 {
			return 0, a.errf(line, "lif needs an fp register, a scratch register and a float")
		}
		f, err := strconv.ParseFloat(ops[2], 64)
		if err != nil {
			return 0, a.errf(line, "bad float %q", ops[2])
		}
		return 4 * uint64(len(liChunks(floatBits(f)))+1), nil
	case "la":
		return 8, nil
	default:
		if _, ok := isa.OpByName(mnemonic); !ok && !isPseudo(mnemonic) {
			return 0, a.errf(line, "unknown instruction %q", mnemonic)
		}
		return 4, nil
	}
}

var pseudoSet = map[string]bool{
	"mov": true, "b": true, "call": true, "ret": true,
	"cbz": true, "cbnz": true, "neg": true, "not": true, "subi": true,
}

func isPseudo(m string) bool { return pseudoSet[m] }

// pass2 encodes every statement with all symbols resolved.
func (a *assembler) pass2() (*isa.Program, error) {
	image := make([]byte, a.loc-a.origin)
	for _, st := range a.stmts {
		var bytes []byte
		var err error
		switch st.kind {
		case kindData:
			if st.deferred != nil {
				bytes, err = a.encodeData(&st)
			} else {
				bytes = st.data
			}
		case kindInst:
			bytes, err = a.encodeInst(&st)
		}
		if err != nil {
			return nil, err
		}
		if uint64(len(bytes)) != st.size {
			return nil, a.errf(st.line, "internal: size changed between passes (%d != %d)", len(bytes), st.size)
		}
		copy(image[st.addr-a.origin:], bytes)
	}
	entry := a.origin
	if e, ok := a.symbols["_start"]; ok {
		entry = e
	}
	return isa.NewProgram(entry, a.origin, image, a.symbols), nil
}

func (a *assembler) encodeData(st *stmt) ([]byte, error) {
	buf := make([]byte, 0, st.size)
	for _, op := range st.deferred {
		v, err := a.parseInt(st.line, op)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < st.elemSize; i++ {
			buf = append(buf, byte(uint64(v)>>(8*i)))
		}
	}
	return buf, nil
}

func appendU64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

func stripComment(s string) string {
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == ';' || s[i] == '#':
			return s[:i]
		case s[i] == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

func splitMnemonic(s string) (string, string) {
	s = strings.TrimSpace(s)
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return strings.ToLower(s[:i]), s[i+1:]
		}
	}
	return strings.ToLower(s), ""
}

// splitOperands splits on commas that are outside brackets, then re-joins
// memory operands like "[x2, 8]" into single tokens.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func floatBits(f float64) uint64 {
	// local helper avoiding a math import for one call site
	return mathFloat64bits(f)
}
