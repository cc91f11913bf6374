// Package mem implements the simulated memory system: a sparse functional
// backing store shared by the architectural models, and the timing-side
// hierarchy (set-associative caches with MSHRs, a stride prefetcher on the
// L2, and a DRAM latency/bandwidth model) matching the paper's Table I.
//
// The paper assumes "memory blocks such as caches and DRAM are protected
// by ECC, since our detection scheme is only designed to cover errors
// within the core" (§IV-A); accordingly the functional store is always
// correct and faults are injected only on the core-side paths.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// Sparse is a sparse 64-bit byte-addressable memory. Unwritten locations
// read as zero. The zero value is ready to use.
type Sparse struct {
	pages map[uint64]*page
}

// NewSparse returns an empty memory.
func NewSparse() *Sparse { return &Sparse{pages: make(map[uint64]*page)} }

func (s *Sparse) pageFor(addr uint64, create bool) *page {
	if s.pages == nil {
		if !create {
			return nil
		}
		s.pages = make(map[uint64]*page)
	}
	pn := addr >> pageShift
	p := s.pages[pn]
	if p == nil && create {
		p = new(page)
		s.pages[pn] = p
	}
	return p
}

// ByteAt reads one byte.
func (s *Sparse) ByteAt(addr uint64) byte {
	p := s.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte writes one byte.
func (s *Sparse) SetByte(addr uint64, v byte) {
	s.pageFor(addr, true)[addr&pageMask] = v
}

// Read reads size (1, 2, 4 or 8) bytes at addr, little-endian,
// zero-extended. Accesses may straddle page boundaries.
func (s *Sparse) Read(addr uint64, size uint8) uint64 {
	// Fast path: fully within one page, fixed-width little-endian load.
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := s.pageFor(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
		var v uint64
		for i := uint8(0); i < size; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(s.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write writes the low size bytes of val at addr, little-endian.
func (s *Sparse) Write(addr uint64, size uint8, val uint64) {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := s.pageFor(addr, true)
		switch size {
		case 1:
			p[off] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
		case 8:
			binary.LittleEndian.PutUint64(p[off:], val)
		default:
			for i := uint8(0); i < size; i++ {
				p[off+uint64(i)] = byte(val >> (8 * i))
			}
		}
		return
	}
	for i := uint8(0); i < size; i++ {
		s.SetByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

// SetBytes copies b into memory starting at addr, one page-sized copy at
// a time.
func (s *Sparse) SetBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := s.pageFor(addr, true)
		off := addr & pageMask
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// FirstDiff describes the lowest differing address between two memories,
// or "" if equal. Zero pages are treated as absent, so a
// written-then-zeroed page equals a never-written one. Used by
// fault-classification to decide whether a fault escaped to
// architectural memory state.
func (s *Sparse) FirstDiff(o *Sparse) string {
	type memDiff struct {
		addr uint64
		a, b byte
	}
	var best *memDiff
	// Compare one page pair, skipping equal pages with a single
	// bytes.Equal before falling back to the byte scan for the lowest
	// differing offset.
	diffPage := func(pn uint64, p, op *page) {
		if p == nil {
			p = &zeroPage
		}
		if op == nil {
			op = &zeroPage
		}
		if bytes.Equal(p[:], op[:]) {
			return
		}
		for i := 0; i < pageSize; i++ {
			if p[i] != op[i] {
				addr := pn<<pageShift | uint64(i)
				if best == nil || addr < best.addr {
					best = &memDiff{addr, p[i], op[i]}
				}
				return
			}
		}
	}
	seen := make(map[uint64]bool)
	for pn, p := range s.pages {
		seen[pn] = true
		diffPage(pn, p, o.pageFor(pn<<pageShift, false))
	}
	for pn, op := range o.pages {
		if seen[pn] {
			continue
		}
		diffPage(pn, nil, op)
	}
	if best == nil {
		return ""
	}
	return fmt.Sprintf("mem[%#x]: %#x != %#x", best.addr, best.a, best.b)
}

// zeroPage stands in for absent pages when diffing.
var zeroPage page
