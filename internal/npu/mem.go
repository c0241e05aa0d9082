package npu

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Mem is word-granularity (32-bit) storage addressed in bytes. Addresses
// must be 4-byte aligned; the simulators only generate aligned accesses.
type Mem interface {
	LoadW(addr uint64) uint32
	StoreW(addr uint64, v uint32)
}

// PagedMem is a sparse, growable memory: 64 KiB pages allocated on first
// touch. It models DRAM contents without reserving gigabytes up front.
type PagedMem struct {
	pages map[uint64][]uint32
}

const pageBytes = 64 << 10
const pageWords = pageBytes / 4

// NewPagedMem returns an empty paged memory.
func NewPagedMem() *PagedMem { return &PagedMem{pages: map[uint64][]uint32{}} }

func (m *PagedMem) page(addr uint64) []uint32 {
	pn := addr / pageBytes
	p, ok := m.pages[pn]
	if !ok {
		p = make([]uint32, pageWords)
		m.pages[pn] = p
	}
	return p
}

// LoadW implements Mem.
func (m *PagedMem) LoadW(addr uint64) uint32 {
	checkAlign(addr)
	p, ok := m.pages[addr/pageBytes]
	if !ok {
		return 0
	}
	return p[addr%pageBytes/4]
}

// StoreW implements Mem.
func (m *PagedMem) StoreW(addr uint64, v uint32) {
	checkAlign(addr)
	m.page(addr)[addr%pageBytes/4] = v
}

// LoadF loads a float32.
func (m *PagedMem) LoadF(addr uint64) float32 { return math.Float32frombits(m.LoadW(addr)) }

// StoreF stores a float32.
func (m *PagedMem) StoreF(addr uint64, v float32) { m.StoreW(addr, math.Float32bits(v)) }

// LoadSpan loads len(dst) consecutive float32 words starting at addr, a
// page run at a time. It is LoadF on each word in turn: the same alignment
// panic, and a word on a page never stored reads 0.
func (m *PagedMem) LoadSpan(addr uint64, dst []float32) {
	if len(dst) == 0 {
		return
	}
	checkAlign(addr)
	for len(dst) > 0 {
		w := int(addr % pageBytes / 4)
		n := min(len(dst), pageWords-w)
		if p, ok := m.pages[addr/pageBytes]; ok {
			wordsToFloats(dst[:n], p[w:w+n])
		} else {
			clear(dst[:n])
		}
		addr += uint64(4 * n)
		dst = dst[n:]
	}
}

// StoreSpan stores src as consecutive float32 words starting at addr, a page
// run at a time; it is StoreF on each word in turn.
func (m *PagedMem) StoreSpan(addr uint64, src []float32) {
	if len(src) == 0 {
		return
	}
	checkAlign(addr)
	for len(src) > 0 {
		w := int(addr % pageBytes / 4)
		n := min(len(src), pageWords-w)
		floatsToWords(m.page(addr)[w:w+n], src[:n])
		addr += uint64(4 * n)
		src = src[n:]
	}
}

// ReadFloats loads n float32 values starting at addr.
func (m *PagedMem) ReadFloats(addr uint64, n int) []float32 {
	out := make([]float32, n)
	m.LoadSpan(addr, out)
	return out
}

// Scratchpad is the per-core software-managed SRAM, mapped at isa.SpadBase.
// Its storage is paged: a page is allocated by the first store into it and a
// word never stored reads 0, so a core whose kernel touches a few tiles of a
// 16 MiB scratchpad allocates those tiles, not 16 MiB.
type Scratchpad struct {
	words int
	pages []*[spadPageWords]uint32
}

// spadPageWords is the scratchpad page size in words (16 KiB).
const spadPageWords = 4 << 10

// NewScratchpad returns a scratchpad of the given byte capacity.
func NewScratchpad(bytes int) *Scratchpad {
	words := bytes / 4
	return &Scratchpad{words: words, pages: make([]*[spadPageWords]uint32, (words+spadPageWords-1)/spadPageWords)}
}

// SizeBytes returns the capacity.
func (s *Scratchpad) SizeBytes() int { return s.words * 4 }

func (s *Scratchpad) index(addr uint64) int {
	checkAlign(addr)
	if addr < isa.SpadBase {
		panic(fmt.Sprintf("npu: scratchpad access to non-scratchpad address %#x", addr))
	}
	off := addr - isa.SpadBase
	if off >= uint64(s.words)*4 {
		panic(fmt.Sprintf("npu: scratchpad access out of range: offset %#x of %#x bytes", off, s.words*4))
	}
	return int(off / 4)
}

// LoadW implements Mem for scratchpad-mapped addresses.
func (s *Scratchpad) LoadW(addr uint64) uint32 {
	i := s.index(addr)
	p := s.pages[i/spadPageWords]
	if p == nil {
		return 0
	}
	return p[i%spadPageWords]
}

// StoreW implements Mem.
func (s *Scratchpad) StoreW(addr uint64, v uint32) {
	i := s.index(addr)
	p := s.pages[i/spadPageWords]
	if p == nil {
		p = new([spadPageWords]uint32)
		s.pages[i/spadPageWords] = p
	}
	p[i%spadPageWords] = v
}

// span applies index's checks to the first of n words from addr and returns
// that word's index and how many of the n words lie inside the scratchpad.
// A span mover moves those and then calls index on the first word past them,
// which panics with the per-word message, so a span panics exactly where the
// per-word loop would, after moving the same words.
func (s *Scratchpad) span(addr uint64, n int) (i, in int) {
	if n == 0 {
		return 0, 0
	}
	checkAlign(addr)
	if addr < isa.SpadBase {
		s.index(addr)
	}
	off := (addr - isa.SpadBase) / 4
	if off >= uint64(s.words) {
		return 0, 0
	}
	return int(off), min(n, s.words-int(off))
}

// loadWords fills dst from the words starting at index i, a page run at a
// time; the caller has checked the range.
func (s *Scratchpad) loadWords(i int, dst []float32) {
	for len(dst) > 0 {
		w := i % spadPageWords
		n := min(len(dst), spadPageWords-w)
		if p := s.pages[i/spadPageWords]; p != nil {
			wordsToFloats(dst[:n], p[w:w+n])
		} else {
			clear(dst[:n])
		}
		i += n
		dst = dst[n:]
	}
}

// storeWords stores src at the words starting at index i, allocating the
// pages it touches; the caller has checked the range.
func (s *Scratchpad) storeWords(i int, src []float32) {
	for len(src) > 0 {
		w := i % spadPageWords
		n := min(len(src), spadPageWords-w)
		p := s.pages[i/spadPageWords]
		if p == nil {
			p = new([spadPageWords]uint32)
			s.pages[i/spadPageWords] = p
		}
		floatsToWords(p[w:w+n], src[:n])
		i += n
		src = src[n:]
	}
}

// LoadSpan loads len(dst) consecutive float32 words starting at addr. It is
// LoadF on each word in turn: it panics with the same message at the same
// word, after loading the words before it.
func (s *Scratchpad) LoadSpan(addr uint64, dst []float32) {
	i, in := s.span(addr, len(dst))
	s.loadWords(i, dst[:in])
	if in < len(dst) {
		s.index(addr + uint64(4*in))
	}
}

// StoreSpan stores src as consecutive float32 words starting at addr. It is
// StoreF on each word in turn: it panics with the same message at the same
// word, after storing the words before it.
func (s *Scratchpad) StoreSpan(addr uint64, src []float32) {
	i, in := s.span(addr, len(src))
	s.storeWords(i, src[:in])
	if in < len(src) {
		s.index(addr + uint64(4*in))
	}
}

// LoadF loads a float32.
func (s *Scratchpad) LoadF(addr uint64) float32 { return math.Float32frombits(s.LoadW(addr)) }

// StoreF stores a float32.
func (s *Scratchpad) StoreF(addr uint64, v float32) { s.StoreW(addr, math.Float32bits(v)) }

// AddressSpace routes byte addresses to DRAM or a core's scratchpad based on
// the memory map (§3.4: the scratchpad occupies a high virtual region).
type AddressSpace struct {
	DRAM *PagedMem
	Spad *Scratchpad
}

// LoadW implements Mem.
func (a AddressSpace) LoadW(addr uint64) uint32 {
	if isa.IsSpadAddr(addr) {
		return a.Spad.LoadW(addr)
	}
	return a.DRAM.LoadW(addr)
}

// StoreW implements Mem.
func (a AddressSpace) StoreW(addr uint64, v uint32) {
	if isa.IsSpadAddr(addr) {
		a.Spad.StoreW(addr, v)
		return
	}
	a.DRAM.StoreW(addr, v)
}

// LoadF loads a float32 from either region.
func (a AddressSpace) LoadF(addr uint64) float32 { return math.Float32frombits(a.LoadW(addr)) }

// StoreF stores a float32 to either region.
func (a AddressSpace) StoreF(addr uint64, v float32) { a.StoreW(addr, math.Float32bits(v)) }

// dramWords returns how many of n words from addr lie below isa.SpadBase,
// after the alignment check the first word's access would make.
func dramWords(addr uint64, n int) int {
	if n == 0 || addr >= isa.SpadBase {
		return 0
	}
	checkAlign(addr)
	return int(min(uint64(n), (isa.SpadBase-addr)/4))
}

// LoadSpan loads len(dst) consecutive float32 words starting at addr: the
// words below isa.SpadBase from DRAM, the rest from the scratchpad. It is
// LoadF on each word in turn, panics included.
func (a AddressSpace) LoadSpan(addr uint64, dst []float32) {
	n := dramWords(addr, len(dst))
	a.DRAM.LoadSpan(addr, dst[:n])
	a.Spad.LoadSpan(addr+uint64(4*n), dst[n:])
}

// StoreSpan stores src as consecutive float32 words starting at addr, split
// at isa.SpadBase like LoadSpan. It is StoreF on each word in turn.
func (a AddressSpace) StoreSpan(addr uint64, src []float32) {
	n := dramWords(addr, len(src))
	a.DRAM.StoreSpan(addr, src[:n])
	a.Spad.StoreSpan(addr+uint64(4*n), src[n:])
}

func wordsToFloats(dst []float32, src []uint32) {
	for i, w := range src[:len(dst)] {
		dst[i] = math.Float32frombits(w)
	}
}

func floatsToWords(dst []uint32, src []float32) {
	for i, v := range src[:len(dst)] {
		dst[i] = math.Float32bits(v)
	}
}

func checkAlign(addr uint64) {
	if addr%4 != 0 {
		panic(fmt.Sprintf("npu: unaligned 32-bit access at %#x", addr))
	}
}
