package npu

import "fmt"

// DMADesc is a multi-dimensional DMA descriptor, the state programmed by the
// four CONFIG instructions (Fig. 3(b)) and consumed by mvin/mvout. It
// describes Outer blocks of Rows x Cols elements; the engine also supports
// an implicit transpose (§3.3.3) used by the layout optimizations (§3.6.3).
type DMADesc struct {
	Rows, Cols  int  // 2-D tile shape in elements
	DRAMStride  int  // bytes between consecutive tile rows in DRAM
	SpadStride  int  // bytes between consecutive tile rows in scratchpad
	ElemBytes   int  // element size (4 for float32)
	Transpose   bool // store the tile transposed on the scratchpad side
	Interleave  int  // scratchpad bank interleave granularity (modelled as metadata)
	Outer       int  // outer-dimension repeat count (4-D DMA, §3.6.3)
	OuterStride int  // bytes between outer blocks on the DRAM side
}

// Normalize fills in defaults for unset fields (zero values become the
// natural single-tile descriptor).
func (d DMADesc) Normalize() DMADesc {
	if d.ElemBytes == 0 {
		d.ElemBytes = 4
	}
	if d.Rows == 0 {
		d.Rows = 1
	}
	if d.Cols == 0 {
		d.Cols = 1
	}
	if d.DRAMStride == 0 {
		d.DRAMStride = d.Cols * d.ElemBytes
	}
	if d.SpadStride == 0 {
		if d.Transpose {
			d.SpadStride = d.Rows * d.ElemBytes
		} else {
			d.SpadStride = d.Cols * d.ElemBytes
		}
	}
	if d.Outer == 0 {
		d.Outer = 1
	}
	if d.OuterStride == 0 {
		d.OuterStride = d.Rows * d.DRAMStride
	}
	return d
}

// TotalBytes returns the number of payload bytes the descriptor moves.
func (d DMADesc) TotalBytes() int {
	n := d.Normalize()
	return n.Outer * n.Rows * n.Cols * n.ElemBytes
}

// Validate rejects descriptors the hardware cannot express.
func (d DMADesc) Validate() error {
	n := d.Normalize()
	if n.Rows <= 0 || n.Cols <= 0 || n.Outer <= 0 {
		return fmt.Errorf("npu: DMA descriptor with non-positive dims %+v", n)
	}
	if n.ElemBytes != 4 {
		return fmt.Errorf("npu: only 4-byte elements supported, got %d", n.ElemBytes)
	}
	if n.DRAMStride < n.Cols*n.ElemBytes {
		return fmt.Errorf("npu: DRAM stride %d smaller than row bytes %d", n.DRAMStride, n.Cols*n.ElemBytes)
	}
	return nil
}

// RunIn functionally executes an mvin: DRAM -> scratchpad.
func (d DMADesc) RunIn(dram *PagedMem, spad *Scratchpad, dramAddr, spadAddr uint64) error {
	n := d.Normalize()
	if err := n.Validate(); err != nil {
		return err
	}
	for o := 0; o < n.Outer; o++ {
		dBase := dramAddr + uint64(o*n.OuterStride)
		sBase := spadAddr + uint64(o*n.spadOuterBytes())
		for r := 0; r < n.Rows; r++ {
			if !n.Transpose {
				rowIn(dram, spad, dBase+uint64(r*n.DRAMStride), sBase+n.spadOffset(r, 0), n.Cols)
				continue
			}
			for c := 0; c < n.Cols; c++ {
				v := dram.LoadW(dBase + uint64(r*n.DRAMStride+c*n.ElemBytes))
				spad.StoreW(sBase+n.spadOffset(r, c), v)
			}
		}
	}
	return nil
}

// RunOut functionally executes an mvout: scratchpad -> DRAM.
func (d DMADesc) RunOut(dram *PagedMem, spad *Scratchpad, dramAddr, spadAddr uint64) error {
	n := d.Normalize()
	if err := n.Validate(); err != nil {
		return err
	}
	for o := 0; o < n.Outer; o++ {
		dBase := dramAddr + uint64(o*n.OuterStride)
		sBase := spadAddr + uint64(o*n.spadOuterBytes())
		for r := 0; r < n.Rows; r++ {
			if !n.Transpose {
				rowOut(dram, spad, dBase+uint64(r*n.DRAMStride), sBase+n.spadOffset(r, 0), n.Cols)
				continue
			}
			for c := 0; c < n.Cols; c++ {
				v := spad.LoadW(sBase + n.spadOffset(r, c))
				dram.StoreW(dBase+uint64(r*n.DRAMStride+c*n.ElemBytes), v)
			}
		}
	}
	return nil
}

// rowChunk is how many words a row copy moves per span.
const rowChunk = 512

// rowIn copies one contiguous row of cols words from DRAM to the scratchpad
// through the span primitives. It panics where the per-word loop (load a
// word, store it) would, after storing the same words.
func rowIn(dram *PagedMem, spad *Scratchpad, dAddr, sAddr uint64, cols int) {
	var buf [rowChunk]float32
	for cols > 0 {
		n := min(cols, rowChunk)
		dram.LoadSpan(dAddr, buf[:n])
		spad.StoreSpan(sAddr, buf[:n])
		dAddr, sAddr, cols = dAddr+uint64(4*n), sAddr+uint64(4*n), cols-n
	}
}

// rowOut copies one contiguous row of cols words from the scratchpad to
// DRAM. It stores the scratchpad words in range before raising the
// scratchpad's panic, so it too panics where the per-word loop would, after
// storing the same words.
func rowOut(dram *PagedMem, spad *Scratchpad, dAddr, sAddr uint64, cols int) {
	var buf [rowChunk]float32
	for cols > 0 {
		n := min(cols, rowChunk)
		i, in := spad.span(sAddr, n)
		spad.loadWords(i, buf[:in])
		dram.StoreSpan(dAddr, buf[:in])
		if in < n {
			spad.index(sAddr + uint64(4*in))
		}
		dAddr, sAddr, cols = dAddr+uint64(4*n), sAddr+uint64(4*n), cols-n
	}
}

// spadOffset maps tile coordinates to the scratchpad-side byte offset,
// applying the implicit transpose if configured.
func (d DMADesc) spadOffset(r, c int) uint64 {
	if d.Transpose {
		return uint64(c*d.SpadStride + r*d.ElemBytes)
	}
	return uint64(r*d.SpadStride + c*d.ElemBytes)
}

func (d DMADesc) spadOuterBytes() int {
	if d.Transpose {
		return d.Cols * d.SpadStride
	}
	return d.Rows * d.SpadStride
}

// Range is one contiguous DRAM byte range a descriptor touches. TOGSim
// submits each range to the fabric as one memory request, which splits it
// into bursts.
type Range struct {
	Addr  uint64
	Bytes int
}

// DRAMRanges appends to dst the per-row contiguous ranges the descriptor
// touches starting at dramAddr and returns the extended slice. Adjacent
// ranges (rows with contiguous strides, abutting outer blocks) are
// coalesced.
func (d DMADesc) DRAMRanges(dst []Range, dramAddr uint64) []Range {
	n := d.Normalize()
	rowBytes := n.Cols * n.ElemBytes
	start := len(dst)
	for o := 0; o < n.Outer; o++ {
		base := dramAddr + uint64(o*n.OuterStride)
		if n.DRAMStride == rowBytes {
			dst = appendCoalesced(dst, start, Range{Addr: base, Bytes: rowBytes * n.Rows})
			continue
		}
		for r := 0; r < n.Rows; r++ {
			dst = appendCoalesced(dst, start, Range{Addr: base + uint64(r*n.DRAMStride), Bytes: rowBytes})
		}
	}
	return dst
}

// appendCoalesced appends rg to dst, extending the last range instead when
// rg continues it and that range lies at or after dst[start].
func appendCoalesced(dst []Range, start int, rg Range) []Range {
	if len(dst) > start {
		if last := &dst[len(dst)-1]; last.Addr+uint64(last.Bytes) == rg.Addr {
			last.Bytes += rg.Bytes
			return dst
		}
	}
	return append(dst, rg)
}
