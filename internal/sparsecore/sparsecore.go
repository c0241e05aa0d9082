// Package sparsecore models an outer-product SpMSpM accelerator core (the
// Flexagon core of §5.1, integrated the way the paper integrates the
// SST-STONNE core model): a grid of multipliers consuming CSR operands and
// a merge network combining partial products. Tile compute latency is
// data-dependent — deterministic for each particular tile but varying
// across tiles — so the TLS path records per-tile latencies, obtained
// offline by the functional analysis below, in the TOG's auxiliary
// tile-latency table (§3.8).
package sparsecore

import (
	"fmt"

	"repro/internal/npu"
	"repro/internal/sparse"
	"repro/internal/tog"
)

// Config describes the sparse core microarchitecture.
type Config struct {
	Multipliers   int   // parallel multipliers
	MergePorts    int   // merge-network throughput (partial products/cycle)
	FetchOverhead int64 // fixed per-tile fibre-fetch setup cycles
	PipelineFill  int64 // multiplier->merge pipeline depth

	// ScatterStride, when non-zero, models the CSR storage reality that a
	// tile's row fibres are strided slices of the full matrix: tile loads
	// become per-row-fibre DMAs at this byte stride, producing the low
	// row-buffer locality that lets FR-FCFS starve the sparse core (§5.1).
	// Zero keeps tiles packed (used by the flat-latency validation).
	ScatterStride int
}

// DefaultConfig mirrors a mid-size Flexagon configuration.
func DefaultConfig() Config {
	return Config{Multipliers: 64, MergePorts: 64, FetchOverhead: 32, PipelineFill: 16}
}

// TileCycles computes the deterministic latency of one A-tile x B-tile
// outer-product SpMSpM on this core: the multiply phase streams
// sum_k nnz(A[:,k])*nnz(B[k,:]) products through the multipliers while the
// merge network combines them. This is the offline, data-dependent analysis
// the paper performs with its extended Spike (§3.8); the resulting latency
// is exact for the tile and reusable across simulations.
func (c Config) TileCycles(a, b *sparse.CSR) int64 {
	mult := sparse.MultCount(a, b)
	if mult == 0 {
		return c.FetchOverhead
	}
	multCycles := ceilDiv64(mult, int64(c.Multipliers))
	mergeCycles := ceilDiv64(mult, int64(c.MergePorts))
	phase := multCycles
	if mergeCycles > phase {
		phase = mergeCycles
	}
	return c.FetchOverhead + phase + c.PipelineFill
}

// csrBytes is the fibre footprint of a CSR matrix (values + column indices
// + row pointers).
func csrBytes(m *sparse.CSR) int {
	return m.NNZ()*8 + (m.Rows+1)*4
}

// TiledJob is a tiled SpMSpM lowered for TLS: the TOG (with per-tile
// latencies in the auxiliary table) plus the operand placement used to bind
// DRAM addresses.
type TiledJob struct {
	TOG      *tog.TOG
	Bases    map[string]uint64
	OutNNZ   int
	TotalMul int64
}

// BuildTiledJob partitions A (MxK) and B (KxN) into tileN-sized blocks,
// computes each block-pair product's data-dependent latency offline, and
// emits the TOG: per (i,j) output tile, for each k block, load both operand
// tiles (CSR fibres) and run the keyed compute node on the sparse unit;
// the merged output tile stores once per (i,j).
func BuildTiledJob(name string, a, b *sparse.CSR, tileN int, cfg Config, baseAddr uint64) (*TiledJob, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sparsecore: dims %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	ti := ceilDiv(a.Rows, tileN)
	tk := ceilDiv(a.Cols, tileN)
	tj := ceilDiv(b.Cols, tileN)

	bld := tog.NewBuilder(name, "A", "B", "O")
	job := &TiledJob{Bases: map[string]uint64{}}

	// Operand tiles are stored packed; record each tile's offset and size.
	type tileRef struct {
		off   int64
		bytes int
	}
	aTiles := make(map[[2]int]tileRef)
	bTiles := make(map[[2]int]tileRef)
	var aOff, bOff int64
	aSub := make(map[[2]int]*sparse.CSR)
	bSub := make(map[[2]int]*sparse.CSR)
	tileFootprint := func(by int) int64 {
		if cfg.ScatterStride > 0 {
			return int64(tileN) * int64(maxInt2(cfg.ScatterStride, alignUp((by+tileN-1)/tileN, 4)))
		}
		return int64(alignUp(by, 64))
	}
	for i := 0; i < ti; i++ {
		for k := 0; k < tk; k++ {
			sub := a.SubMatrix(i*tileN, minInt((i+1)*tileN, a.Rows), k*tileN, minInt((k+1)*tileN, a.Cols))
			by := csrBytes(sub)
			aTiles[[2]int{i, k}] = tileRef{off: aOff, bytes: by}
			aSub[[2]int{i, k}] = sub
			aOff += tileFootprint(by)
		}
	}
	for k := 0; k < tk; k++ {
		for j := 0; j < tj; j++ {
			sub := b.SubMatrix(k*tileN, minInt((k+1)*tileN, b.Rows), j*tileN, minInt((j+1)*tileN, b.Cols))
			by := csrBytes(sub)
			bTiles[[2]int{k, j}] = tileRef{off: bOff, bytes: by}
			bSub[[2]int{k, j}] = sub
			bOff += tileFootprint(by)
		}
	}
	job.Bases["A"] = baseAddr
	job.Bases["B"] = baseAddr + uint64(alignUp64(aOff, 4096))
	outBase := job.Bases["B"] + uint64(alignUp64(bOff, 4096))
	job.Bases["O"] = outBase

	// The core's fibre cache holds operand fibres once fetched (Flexagon's
	// FiberCache), so each unique tile is loaded exactly once, in the order
	// the (i, j, k) steps first need it; each tile gets its own DMA tag so
	// compute steps wait only on the fibres they consume.
	type step struct{ i, j, k int }
	var steps []step
	for i := 0; i < ti; i++ {
		for j := 0; j < tj; j++ {
			for k := 0; k < tk; k++ {
				steps = append(steps, step{i, j, k})
			}
		}
	}
	const tagOut = 1
	nextTag := 2
	aTag := map[[2]int]int{}
	bTag := map[[2]int]int{}
	// fibreDesc shapes one operand-tile load: packed when ScatterStride is
	// zero, otherwise one strided fibre per tile row.
	fibreDesc := func(bytes int) npu.DMADesc {
		if cfg.ScatterStride <= 0 {
			return npu.DMADesc{Rows: 1, Cols: alignUp(bytes, 4) / 4}
		}
		rows := tileN
		per := alignUp((bytes+rows-1)/rows, 4) / 4
		if per < 1 {
			per = 1
		}
		return npu.DMADesc{Rows: rows, Cols: per, DRAMStride: maxInt2(cfg.ScatterStride, per*4)}
	}
	ensureA := func(i, k int) int {
		key := [2]int{i, k}
		if tg, ok := aTag[key]; ok {
			return tg
		}
		tg := nextTag
		nextTag++
		aTag[key] = tg
		at := aTiles[key]
		bld.Load("A", fibreDesc(at.bytes), tog.AddrExpr{Const: at.off}, tg, 0)
		return tg
	}
	ensureB := func(k, j int) int {
		key := [2]int{k, j}
		if tg, ok := bTag[key]; ok {
			return tg
		}
		tg := nextTag
		nextTag++
		bTag[key] = tg
		bt := bTiles[key]
		bld.Load("B", fibreDesc(bt.bytes), tog.AddrExpr{Const: bt.off}, tg, 0)
		return tg
	}
	// Issue the first few steps' fibres up front so loads stream ahead of
	// compute; subsequent tiles are requested one step ahead.
	const prefetch = 4
	for s := 0; s < minInt(prefetch, len(steps)); s++ {
		ensureA(steps[s].i, steps[s].k)
		ensureB(steps[s].k, steps[s].j)
	}
	var outOff int64
	var acc *sparse.CSR
	for s, stp := range steps {
		if s+prefetch < len(steps) {
			nxt := steps[s+prefetch]
			ensureA(nxt.i, nxt.k)
			ensureB(nxt.k, nxt.j)
		}
		bld.Wait(ensureA(stp.i, stp.k))
		bld.Wait(ensureB(stp.k, stp.j))
		key := fmt.Sprintf("sp_%d_%d_%d", stp.i, stp.j, stp.k)
		lat := cfg.TileCycles(aSub[[2]int{stp.i, stp.k}], bSub[[2]int{stp.k, stp.j}])
		bld.SetTileLatency(key, lat)
		bld.ComputeKeyed(tog.UnitSparse, key)
		job.TotalMul += sparse.MultCount(aSub[[2]int{stp.i, stp.k}], bSub[[2]int{stp.k, stp.j}])
		prod := sparse.SpMSpM(aSub[[2]int{stp.i, stp.k}], bSub[[2]int{stp.k, stp.j}])
		if acc == nil {
			acc = prod
		} else {
			acc = addCSR(acc, prod)
		}
		if stp.k == tk-1 {
			outBytes := csrBytes(acc)
			job.OutNNZ += acc.NNZ()
			bld.Store("O", npu.DMADesc{Rows: 1, Cols: alignUp(outBytes, 4) / 4}, tog.AddrExpr{Const: outOff}, tagOut, 0)
			outOff += int64(alignUp(outBytes, 64))
			acc = nil
		}
	}
	g, err := bld.Build()
	if err != nil {
		return nil, err
	}
	job.TOG = g
	return job, nil
}

// addCSR returns the sparse sum of two same-shaped CSR matrices.
func addCSR(a, b *sparse.CSR) *sparse.CSR {
	out := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int32, a.Rows+1)}
	for r := 0; r < a.Rows; r++ {
		ia, ea := a.RowPtr[r], a.RowPtr[r+1]
		ib, eb := b.RowPtr[r], b.RowPtr[r+1]
		for ia < ea || ib < eb {
			switch {
			case ib >= eb || (ia < ea && a.ColIdx[ia] < b.ColIdx[ib]):
				out.ColIdx = append(out.ColIdx, a.ColIdx[ia])
				out.Val = append(out.Val, a.Val[ia])
				ia++
			case ia >= ea || b.ColIdx[ib] < a.ColIdx[ia]:
				out.ColIdx = append(out.ColIdx, b.ColIdx[ib])
				out.Val = append(out.Val, b.Val[ib])
				ib++
			default:
				v := a.Val[ia] + b.Val[ib]
				if v != 0 {
					out.ColIdx = append(out.ColIdx, a.ColIdx[ia])
					out.Val = append(out.Val, v)
				}
				ia++
				ib++
			}
		}
		out.RowPtr[r+1] = int32(len(out.Val))
	}
	return out
}

func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}

func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func alignUp(v, a int) int {
	return (v + a - 1) &^ (a - 1)
}

func alignUp64(v, a int64) int64 {
	return (v + a - 1) &^ (a - 1)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
