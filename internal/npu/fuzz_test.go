package npu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/tensor"
)

// The native fuzz targets promote the package's testing/quick properties:
// the same seed-driven bodies run under quick.Check in the unit suite, over
// the checked-in corpus (testdata/fuzz) in every plain `go test`, and under
// coverage-guided mutation via `go test -fuzz` / `make fuzz-smoke`.

// propDMARoundTrip: RunIn followed by RunOut restores the strided source
// region exactly for any tile shape and row pitch.
func propDMARoundTrip(seed uint64) bool {
	r := tensor.NewRNG(seed)
	rows, cols := 1+r.Intn(8), 1+r.Intn(8)
	stride := cols*4 + 4*r.Intn(4)
	dram := NewPagedMem()
	spad := NewScratchpad(64 << 10)
	src := tensor.RandNormal(r, 0, 1, rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dram.StoreF(uint64(i*stride+j*4), src.At(i, j))
		}
	}
	d := DMADesc{Rows: rows, Cols: cols, DRAMStride: stride}
	if d.RunIn(dram, spad, 0, isa.SpadBase) != nil {
		return false
	}
	outBase := uint64(1 << 20)
	if d.RunOut(dram, spad, outBase, isa.SpadBase) != nil {
		return false
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if dram.LoadF(outBase+uint64(i*stride+j*4)) != src.At(i, j) {
				return false
			}
		}
	}
	return true
}

// propDMARangesTotal: the coalesced DRAM range list accounts for every byte
// the descriptor moves.
func propDMARangesTotal(seed uint64) bool {
	r := tensor.NewRNG(seed)
	d := DMADesc{
		Rows:       1 + r.Intn(6),
		Cols:       1 + r.Intn(6),
		DRAMStride: 0,
		Outer:      1 + r.Intn(3),
	}
	if r.Intn(2) == 0 {
		d.DRAMStride = d.Cols*4 + 4*(1+r.Intn(3))
	}
	total := 0
	for _, rg := range d.DRAMRanges(nil, 0) {
		total += rg.Bytes
	}
	return total == d.TotalBytes()
}

func FuzzDMARoundTrip(f *testing.F) {
	for s := uint64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if !propDMARoundTrip(seed) {
			t.Fatalf("DMA in/out round trip corrupted data (seed %d)", seed)
		}
	})
}

func FuzzDMARangesTotal(f *testing.F) {
	for s := uint64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if !propDMARangesTotal(seed) {
			t.Fatalf("DRAMRanges bytes do not sum to TotalBytes (seed %d)", seed)
		}
	})
}
