package compiler

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/tog"
)

// gemmTiles is the chosen tiling of a GEMM-shaped layer.
type gemmTiles struct {
	Mt, Kt, Nt int
	// spad layout (byte offsets inside the context's scratchpad slice)
	offA, offB, offOut         int64
	offBias, offGamma, offBeta int64
	fineA, fineB               bool
}

// planGEMM picks tile sizes maximizing scratchpad utilization (the
// Gemmini-like heuristic of §3.6.3) and decides DMA granularity per operand
// according to the DMA mode.
func (st *state) planGEMM(M, K, N int, epi codegen.Epilogue) (gemmTiles, error) {
	core := st.c.Cfg.Core
	t := gemmTiles{Kt: minInt(K, core.SARows), Nt: minInt(N, core.SACols)}
	budget := st.spadBudget()
	// floats: Mt*K (A stripe) + K*Nt (B stripe) + Mt*Nt (out) + 3*Nt (epi rows)
	avail := budget/4 - int64(K)*int64(t.Nt) - 3*int64(t.Nt)
	if avail <= 0 {
		return t, fmt.Errorf("weight stripe (K=%d, Nt=%d) exceeds scratchpad budget %d", K, t.Nt, budget)
	}
	mt := avail / int64(K+t.Nt)
	if mt < 1 {
		return t, fmt.Errorf("no room for input stripe (K=%d) in scratchpad budget %d", K, budget)
	}
	t.Mt = minInt(M, minInt(int(mt), st.c.Opts.maxMt()))

	// Scratchpad layout: six regions, each 256-byte aligned. The float
	// count above leaves the alignment padding out, so shrink Mt until the
	// aligned layout fits.
	for {
		cur := int64(0)
		take := func(bytes int64) int64 {
			off := cur
			cur += (bytes + 255) &^ 255
			return off
		}
		t.offA = take(int64(t.Mt) * int64(K) * 4)
		t.offB = take(int64(K) * int64(t.Nt) * 4)
		t.offOut = take(int64(t.Mt) * int64(t.Nt) * 4)
		t.offBias = take(int64(t.Nt) * 4)
		t.offGamma = take(int64(t.Nt) * 4)
		t.offBeta = take(int64(t.Nt) * 4)
		if cur <= budget {
			break
		}
		if t.Mt == 1 {
			return t, fmt.Errorf("tile set (%d bytes) exceeds scratchpad budget %d", cur, budget)
		}
		t.Mt--
	}

	// DMA granularity per operand (§3.6.3; Fig. 8a).
	switch st.c.Opts.DMA {
	case DMAFine:
		t.fineA, t.fineB = true, true
	case DMACoarse:
	default: // selective: fine unless the stripe is large
		thr := int64(st.c.Opts.fineThreshold())
		t.fineA = int64(t.Mt)*int64(K)*4 <= thr
		t.fineB = int64(K)*int64(t.Nt)*4 <= thr
	}
	return t, nil
}

// gemmOperand describes how to fetch one GEMM operand from DRAM.
type gemmOperand struct {
	tensor    string
	rowBytes  int64 // DRAM row pitch of the stored matrix
	transpose bool  // stored transposed (load through the transpose DMA)
}

// lowerMatMul lowers matmul / matmul_ta / matmul_tb.
func (st *state) lowerMatMul(n *graph.Node, aT, bT bool) error {
	g := st.g
	a, b := g.Nodes[n.Inputs[0]], g.Nodes[n.Inputs[1]]
	M, N := n.Shape[0], n.Shape[1]
	var K int
	if aT {
		K = a.Shape[0]
	} else {
		K = a.Shape[1]
	}
	outName, ge := st.allocOut(n)
	tiles, err := st.planGEMM(M, K, N, ge.epi)
	if err != nil {
		return err
	}
	aOp := gemmOperand{tensor: st.tensorOf[a.ID], rowBytes: int64(a.Shape[1]) * 4, transpose: aT}
	bOp := gemmOperand{tensor: st.tensorOf[b.ID], rowBytes: int64(b.Shape[1]) * 4, transpose: bT}
	return st.emitGEMMTOG(gemmEmit{
		name: fmt.Sprintf("%s_n%d", n.Op, n.ID),
		node: n.ID,
		M:    M, K: K, N: N,
		tiles: tiles,
		a:     aOp, b: bOp,
		out:      outName,
		outPitch: int64(N) * 4,
		epi:      ge,
	})
}

// gemmEmit bundles everything emitGEMMTOG needs.
type gemmEmit struct {
	name     string
	node     int
	M, K, N  int
	tiles    gemmTiles
	a, b     gemmOperand
	out      string
	outPitch int64
	epi      groupEpi
}

// DMA tag conventions inside a GEMM TOG.
const (
	tagAStripe = 1
	tagBStripe = 2
	tagEpi     = 3
	tagStore   = 4
	tagABase   = 100 // + panel index (fine-grained A)
	tagBBase   = 300 // + panel index (fine-grained B)
)

// emitGEMMTOG emits the tiled GEMM TOG: hoisted A stripes per M-tile, B
// stripes per (M,N) tile, K-panel compute with accumulation, fused epilogue
// on the last panel, asynchronous output stores.
func (st *state) emitGEMMTOG(e gemmEmit) error {
	b := tog.NewBuilder(e.name, e.a.tensor, e.b.tensor, e.out)
	t := e.tiles
	epi := e.epi.epi
	if epi.Bias {
		b.DeclareTensor(st.tensorOf[e.epi.biasNode])
	}
	if epi.ScaleShift {
		b.DeclareTensor(st.tensorOf[e.epi.gammaNode])
		b.DeclareTensor(st.tensorOf[e.epi.betaNode])
	}

	panels := panelSizes(e.K, t.Kt)

	// loadA loads panel ko (or the whole stripe when ko < 0) of the mt x K
	// input stripe for M-tile mo.
	loadA := func(mo idx, mt, ko int, tag int) {
		if !e.a.transpose {
			desc := npu.DMADesc{Rows: mt, Cols: e.K, DRAMStride: int(e.a.rowBytes)}
			off := mo.addr(int64(t.Mt) * e.a.rowBytes)
			spad := t.offA
			if ko >= 0 {
				desc.Cols = panels[ko]
				desc.SpadStride = e.K * 4
				off = addExpr(off, tog.AddrExpr{Const: int64(ko * t.Kt * 4)})
				spad += int64(ko * t.Kt * 4)
			}
			b.Load(e.a.tensor, desc, off, tag, spad)
			return
		}
		// A stored (K, M): transpose-load columns [mo*Mt, +mt).
		desc := npu.DMADesc{Rows: e.K, Cols: mt, DRAMStride: int(e.a.rowBytes), Transpose: true, SpadStride: e.K * 4}
		off := mo.addr(int64(t.Mt) * 4)
		spad := t.offA
		if ko >= 0 {
			desc.Rows = panels[ko]
			off = addExpr(off, tog.AddrExpr{Const: int64(ko*t.Kt) * e.a.rowBytes})
			spad += int64(ko * t.Kt * 4)
		}
		b.Load(e.a.tensor, desc, off, tag, spad)
	}

	// loadB loads panel ko (or whole stripe when ko < 0) of the K x nt
	// weight stripe for N-tile no.
	loadB := func(no idx, nt, ko int, tag int) {
		if !e.b.transpose {
			desc := npu.DMADesc{Rows: e.K, Cols: nt, DRAMStride: int(e.b.rowBytes)}
			off := no.addr(int64(t.Nt) * 4)
			spad := t.offB
			if ko >= 0 {
				desc.Rows = panels[ko]
				off = addExpr(off, tog.AddrExpr{Const: int64(ko*t.Kt) * e.b.rowBytes})
				spad += int64(ko * t.Kt * nt * 4)
			}
			b.Load(e.b.tensor, desc, off, tag, spad)
			return
		}
		// B stored (N, K): transpose-load rows [no*Nt, +nt).
		desc := npu.DMADesc{Rows: nt, Cols: e.K, DRAMStride: int(e.b.rowBytes), Transpose: true, SpadStride: nt * 4}
		off := no.addr(int64(t.Nt) * e.b.rowBytes)
		spad := t.offB
		if ko >= 0 {
			desc.Cols = panels[ko]
			off = addExpr(off, tog.AddrExpr{Const: int64(ko * t.Kt * 4)})
			spad += int64(ko * t.Kt * nt * 4)
		}
		b.Load(e.b.tensor, desc, off, tag, spad)
	}

	emitDim(b, "mo", e.M, t.Mt, func(mo idx, mt int) {
		if t.fineA {
			for ko := range panels {
				loadA(mo, mt, ko, tagABase+ko)
			}
		} else {
			loadA(mo, mt, -1, tagAStripe)
		}
		emitDim(b, "no", e.N, t.Nt, func(no idx, nt int) {
			if epi.Bias {
				b.Load(st.tensorOf[e.epi.biasNode], npu.DMADesc{Rows: 1, Cols: nt}, no.addr(int64(t.Nt)*4), tagEpi, t.offBias)
			}
			if epi.ScaleShift {
				b.Load(st.tensorOf[e.epi.gammaNode], npu.DMADesc{Rows: 1, Cols: nt}, no.addr(int64(t.Nt)*4), tagEpi, t.offGamma)
				b.Load(st.tensorOf[e.epi.betaNode], npu.DMADesc{Rows: 1, Cols: nt}, no.addr(int64(t.Nt)*4), tagEpi, t.offBeta)
			}
			if t.fineB {
				for ko := range panels {
					loadB(no, nt, ko, tagBBase+ko)
				}
			} else {
				loadB(no, nt, -1, tagBStripe)
			}
			for ko, kt := range panels {
				if t.fineA {
					b.Wait(tagABase + ko)
				} else if ko == 0 {
					b.Wait(tagAStripe)
				}
				if t.fineB {
					b.Wait(tagBBase + ko)
				} else if ko == 0 {
					b.Wait(tagBStripe)
				}
				last := ko == len(panels)-1
				spec := codegen.GEMMSpec{
					M: mt, K: kt, N: nt,
					Accumulate:  ko > 0,
					InOff:       t.offA + int64(ko*t.Kt*4),
					WOff:        t.offB + int64(ko*t.Kt*nt*4),
					OutOff:      t.offOut,
					InRowStride: int64(e.K) * 4,
				}
				if last {
					spec.Epi = epi
					if last && (epi.Bias || epi.ScaleShift) {
						b.Wait(tagEpi)
					}
					spec.BiasOff = t.offBias
					spec.GammaOff = t.offGamma
					spec.BetaOff = t.offBeta
				}
				st.emitComputeGEMM(b, spec)
			}
			// Store the finished tile.
			desc := npu.DMADesc{Rows: mt, Cols: nt, DRAMStride: int(e.outPitch)}
			off := addExpr(mo.addr(int64(t.Mt)*e.outPitch), no.addr(int64(t.Nt)*4))
			b.Store(e.out, desc, off, tagStore, t.offOut)
		})
	})
	b.SetSpadBytes(st.spadBudget())
	return st.addTOG(b, e.node)
}

// emitComputeGEMM emits the panel kernel's compute node, deferring codegen
// and latency measurement to the worker pool. A layer emits the same tile
// spec many times, so its signature and kernel id are formatted once.
func (st *state) emitComputeGEMM(b *tog.Builder, spec codegen.GEMMSpec) {
	k, ok := st.gemmKeys[spec]
	if !ok {
		k.sig = spec.Signature()
		k.id = fmt.Sprintf("%s@%d_%d_%d", k.sig, spec.InOff, spec.WOff, spec.OutOff)
		st.gemmKeys[spec] = k
	}
	st.computeKernel(b, tog.UnitSA, k.sig, k.id, func() *isa.Program { return codegen.GEMM(spec) })
}

// gemmKey is a GEMM tile spec's latency signature and kernel id.
type gemmKey struct{ sig, id string }

// panelSizes splits K into SA-depth panels.
func panelSizes(K, Kt int) []int {
	var out []int
	for k := 0; k < K; k += Kt {
		kt := Kt
		if K-k < kt {
			kt = K - k
		}
		out = append(out, kt)
	}
	return out
}

// emitDim iterates the tile regions of one dimension: a symbolic loop over
// the full tiles plus an unrolled edge tile.
func emitDim(b *tog.Builder, varName string, total, tile int, f func(pos idx, size int)) {
	full := total / tile
	edge := total % tile
	switch {
	case full == 1:
		f(idx{c: 0}, tile)
	case full > 1:
		b.Loop(varName, 0, int64(full), 1)
		f(idx{v: varName}, tile)
		b.EndLoop()
	}
	if edge > 0 {
		f(idx{c: int64(full)}, edge)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
