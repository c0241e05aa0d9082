package npu

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/tensor"
)

func TestConfigsSane(t *testing.T) {
	for _, cfg := range []Config{TPUv3Config(), SmallConfig()} {
		if cfg.Cores <= 0 || cfg.FreqMHz <= 0 {
			t.Fatalf("%s: bad top-level config", cfg.Name)
		}
		if cfg.Core.VLEN() <= 0 || cfg.Core.MACsPerCycle() <= 0 {
			t.Fatalf("%s: bad core config", cfg.Name)
		}
		if cfg.Mem.Channels <= 0 || cfg.Mem.BytesPerSec <= 0 {
			t.Fatalf("%s: bad mem config", cfg.Name)
		}
	}
	tpu := TPUv3Config()
	if tpu.Core.VLEN() != 2048 {
		t.Fatalf("TPUv3 VLEN = %d, want 2048 (128 units x 16 lanes)", tpu.Core.VLEN())
	}
	if tpu.Core.MACsPerCycle() != 2*128*128 {
		t.Fatalf("TPUv3 MACs/cycle = %d", tpu.Core.MACsPerCycle())
	}
	if tpu.Core.SpadBytes != 16<<20 {
		t.Fatalf("TPUv3 scratchpad = %d", tpu.Core.SpadBytes)
	}
}

func TestPagedMemRoundTrip(t *testing.T) {
	m := NewPagedMem()
	m.StoreW(0, 42)
	m.StoreW(1<<30, 7) // far page
	if m.LoadW(0) != 42 || m.LoadW(1<<30) != 7 {
		t.Fatal("paged mem round trip failed")
	}
	if m.LoadW(4096) != 0 {
		t.Fatal("untouched memory must read 0")
	}
	m.StoreF(8, 3.5)
	if m.LoadF(8) != 3.5 {
		t.Fatal("float round trip failed")
	}
}

func TestPagedMemFloatsBulk(t *testing.T) {
	m := NewPagedMem()
	vals := []float32{1, 2, 3, 4, 5}
	m.StoreSpan(100<<10, vals)
	got := m.ReadFloats(100<<10, 5)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("bulk floats mismatch at %d", i)
		}
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned access")
		}
	}()
	NewPagedMem().LoadW(2)
}

func TestScratchpadBounds(t *testing.T) {
	s := NewScratchpad(1024)
	s.StoreF(isa.SpadBase+4, 9)
	if s.LoadF(isa.SpadBase+4) != 9 {
		t.Fatal("scratchpad round trip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range scratchpad access")
		}
	}()
	s.LoadW(isa.SpadBase + 2048)
}

// TestScratchpadPaged: the paged scratchpad reads 0 wherever nothing was
// stored, round-trips words at both ends of its capacity and across a page
// boundary, and panics with the same messages as a flat one.
func TestScratchpadPaged(t *testing.T) {
	const pageBytes = spadPageWords * 4
	for _, size := range []int{16 << 20, 3*pageBytes + 12} { // whole pages; a partial last page
		s := NewScratchpad(size)
		if s.SizeBytes() != size {
			t.Fatalf("SizeBytes() = %d, want %d", s.SizeBytes(), size)
		}
		last := isa.SpadBase + uint64(size) - 4
		rng := rand.New(rand.NewSource(int64(size)))
		probes := []uint64{isa.SpadBase, last, isa.SpadBase + pageBytes - 4, isa.SpadBase + pageBytes}
		for i := 0; i < 64; i++ {
			probes = append(probes, isa.SpadBase+4*uint64(rng.Intn(size/4)))
		}
		for _, a := range probes {
			if v := s.LoadW(a); v != 0 {
				t.Fatalf("size %d: unwritten word at %#x reads %d", size, a, v)
			}
		}
		stores := map[uint64]uint32{
			isa.SpadBase:                 1,
			last:                         2,
			isa.SpadBase + pageBytes - 4: 3, // last word of page 0
			isa.SpadBase + pageBytes:     4, // first word of page 1
		}
		for a, v := range stores {
			s.StoreW(a, v)
		}
		for a, v := range stores {
			if got := s.LoadW(a); got != v {
				t.Fatalf("size %d: word at %#x = %d, want %d", size, a, got, v)
			}
		}
		for _, a := range []uint64{isa.SpadBase + 4, isa.SpadBase + pageBytes + 4, last - 4} {
			if v := s.LoadW(a); v != 0 {
				t.Fatalf("size %d: neighbour %#x of a stored word reads %d", size, a, v)
			}
		}
	}

	s := NewScratchpad(1024)
	for _, tc := range []struct {
		name string
		f    func()
		want string
	}{
		{"unaligned load", func() { s.LoadW(isa.SpadBase + 2) }, fmt.Sprintf("npu: unaligned 32-bit access at %#x", isa.SpadBase+2)},
		{"unaligned store", func() { s.StoreW(isa.SpadBase+6, 1) }, fmt.Sprintf("npu: unaligned 32-bit access at %#x", isa.SpadBase+6)},
		{"load past end", func() { s.LoadW(isa.SpadBase + 1024) }, "npu: scratchpad access out of range: offset 0x400 of 0x400 bytes"},
		{"store past end", func() { s.StoreW(isa.SpadBase+4096, 1) }, "npu: scratchpad access out of range: offset 0x1000 of 0x400 bytes"},
		{"low address", func() { s.StoreW(64, 1) }, "npu: scratchpad access to non-scratchpad address 0x40"},
	} {
		got := func() (msg any) {
			defer func() { msg = recover() }()
			tc.f()
			return nil
		}()
		if got != tc.want {
			t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
		}
	}
}

func TestScratchpadRejectsLowAddress(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for DRAM address on scratchpad")
		}
	}()
	NewScratchpad(1024).LoadW(64)
}

func TestAddressSpaceRouting(t *testing.T) {
	as := AddressSpace{DRAM: NewPagedMem(), Spad: NewScratchpad(4096)}
	as.StoreF(16, 1.5)
	as.StoreF(isa.SpadBase+16, 2.5)
	if as.LoadF(16) != 1.5 {
		t.Fatal("DRAM routing failed")
	}
	if as.LoadF(isa.SpadBase+16) != 2.5 {
		t.Fatal("scratchpad routing failed")
	}
	if as.DRAM.LoadF(16) != 1.5 || as.Spad.LoadF(isa.SpadBase+16) != 2.5 {
		t.Fatal("underlying memories not written")
	}
}

func TestDMADescNormalizeDefaults(t *testing.T) {
	d := DMADesc{Rows: 4, Cols: 8}.Normalize()
	if d.ElemBytes != 4 || d.DRAMStride != 32 || d.SpadStride != 32 || d.Outer != 1 {
		t.Fatalf("Normalize defaults wrong: %+v", d)
	}
	if d.TotalBytes() != 4*8*4 {
		t.Fatalf("TotalBytes = %d", d.TotalBytes())
	}
}

func TestDMARunInOutRoundTrip(t *testing.T) {
	// Property body shared with FuzzDMARoundTrip (fuzz_test.go).
	if err := quick.Check(propDMARoundTrip, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDMATranspose(t *testing.T) {
	r := tensor.NewRNG(5)
	rows, cols := 3, 5
	src := tensor.RandNormal(r, 0, 1, rows, cols)
	dram := NewPagedMem()
	dram.StoreSpan(0, src.Data)
	spad := NewScratchpad(4096)
	d := DMADesc{Rows: rows, Cols: cols, Transpose: true}
	if err := d.RunIn(dram, spad, 0, isa.SpadBase); err != nil {
		t.Fatal(err)
	}
	// The scratchpad now holds the cols x rows transpose.
	for c := 0; c < cols; c++ {
		for rr := 0; rr < rows; rr++ {
			got := spad.LoadF(isa.SpadBase + uint64(c*rows*4+rr*4))
			if got != src.At(rr, c) {
				t.Fatalf("transpose mismatch at (%d,%d): %g vs %g", c, rr, got, src.At(rr, c))
			}
		}
	}
}

func TestDMAOuterBlocks(t *testing.T) {
	// Two outer blocks of 2x2, separated in DRAM, packed in scratchpad.
	dram := NewPagedMem()
	for i := 0; i < 16; i++ {
		dram.StoreF(uint64(i*4), float32(i))
	}
	spad := NewScratchpad(4096)
	d := DMADesc{Rows: 2, Cols: 2, DRAMStride: 16, Outer: 2, OuterStride: 32}
	if err := d.RunIn(dram, spad, 0, isa.SpadBase); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 1, 4, 5, 8, 9, 12, 13}
	for i, w := range want {
		if got := spad.LoadF(isa.SpadBase + uint64(i*4)); got != w {
			t.Fatalf("outer block element %d = %g, want %g", i, got, w)
		}
	}
}

func TestDMAValidate(t *testing.T) {
	if err := (DMADesc{Rows: 2, Cols: 2, ElemBytes: 2}).Validate(); err == nil {
		t.Fatal("non-4-byte elements must be rejected")
	}
	if err := (DMADesc{Rows: 2, Cols: 4, DRAMStride: 8}).Validate(); err == nil {
		t.Fatal("stride smaller than row must be rejected")
	}
	if err := (DMADesc{Rows: 2, Cols: 2}).Validate(); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
}

func TestDMARangesCoalesced(t *testing.T) {
	// Contiguous rows collapse into one range.
	d := DMADesc{Rows: 4, Cols: 8}
	rs := d.DRAMRanges(nil, 0)
	if len(rs) != 1 || rs[0].Bytes != 4*8*4 {
		t.Fatalf("contiguous ranges not coalesced: %+v", rs)
	}
	// Strided rows stay separate.
	d2 := DMADesc{Rows: 3, Cols: 2, DRAMStride: 64}
	rs2 := d2.DRAMRanges(nil, 100<<10)
	if len(rs2) != 3 {
		t.Fatalf("want 3 strided ranges, got %+v", rs2)
	}
	for i, rg := range rs2 {
		if rg.Addr != uint64(100<<10)+uint64(i*64) || rg.Bytes != 8 {
			t.Fatalf("range %d wrong: %+v", i, rg)
		}
	}
}

func TestDMARangesTotalMatchesTotalBytes(t *testing.T) {
	// Property body shared with FuzzDMARangesTotal (fuzz_test.go).
	if err := quick.Check(propDMARangesTotal, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreConfigValidate(t *testing.T) {
	for _, cfg := range []CoreConfig{SmallConfig().Core, TPUv3Config().Core} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("stock config invalid: %v", err)
		}
	}
	bad := SmallConfig().Core
	bad.NumVectorUnits, bad.LanesPerUnit = 1, bad.SARows-1
	if err := bad.Validate(); err == nil {
		t.Fatalf("VLEN %d < SA %dx%d accepted", bad.VLEN(), bad.SARows, bad.SACols)
	}
	bad = SmallConfig().Core
	bad.SARows = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("zero SARows accepted")
	}
	bad = SmallConfig().Core
	bad.LanesPerUnit = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("zero LanesPerUnit accepted")
	}
}
