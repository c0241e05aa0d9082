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

// WriteFloats stores a float32 slice starting at addr.
func (m *PagedMem) WriteFloats(addr uint64, vals []float32) {
	for i, v := range vals {
		m.StoreF(addr+uint64(4*i), v)
	}
}

// ReadFloats loads n float32 values starting at addr.
func (m *PagedMem) ReadFloats(addr uint64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = m.LoadF(addr + uint64(4*i))
	}
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

func checkAlign(addr uint64) {
	if addr%4 != 0 {
		panic(fmt.Sprintf("npu: unaligned 32-bit access at %#x", addr))
	}
}
