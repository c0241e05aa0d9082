package compiler

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/tog"
)

// Vector-layer DMA tags.
const (
	tagVecA  = 10
	tagVecB  = 11
	tagVecC  = 12
	tagVecSt = 13
)

// emitComputeKernel emits a vector-unit compute node, deferring codegen and
// latency measurement to the worker pool.
func (st *state) emitComputeKernel(b *tog.Builder, sig, id string, gen func() *isa.Program) {
	st.computeKernel(b, tog.UnitVector, sig, id, gen)
}

// flatTilePlan splits a flat elementwise workload of total elements into
// tiles given the number of concurrently resident operand/output buffers.
type flatTilePlan struct {
	tileElems int
	offs      []int64 // buffer offsets (operands..., output last)
}

func (st *state) planFlat(total, buffers int) (flatTilePlan, error) {
	budget := st.spadBudget()
	maxElems := budget / 4 / int64(buffers)
	// Round down to the vector length for tidy chunks.
	vlen := int64(st.c.Cfg.Core.VLEN())
	if maxElems > vlen {
		maxElems = maxElems / vlen * vlen
	}
	if maxElems < 1 {
		return flatTilePlan{}, fmt.Errorf("no scratchpad room for %d buffers", buffers)
	}
	te := int64(total)
	if te > maxElems {
		te = maxElems
	}
	// Cap tiles so kernels stay reasonably sized.
	if te > 1<<16 {
		te = 1 << 16
	}
	p := flatTilePlan{tileElems: int(te)}
	cur := int64(0)
	for i := 0; i < buffers; i++ {
		p.offs = append(p.offs, cur)
		cur += (te*4 + 255) &^ 255
	}
	return p, nil
}

// lowerEltwiseBinary lowers add/mul/relu_grad over flattened tensors.
func (st *state) lowerEltwiseBinary(n *graph.Node, op codegen.EltOp) error {
	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	bName := st.tensorOf[n.Inputs[1]]
	total := elems(n.Shape)
	plan, err := st.planFlat(total, 3)
	if err != nil {
		return err
	}
	vlen := st.c.Cfg.Core.VLEN()
	b := tog.NewBuilder(fmt.Sprintf("%s_n%d", op, n.ID), aName, bName, outName)
	emitDim(b, "i", total, plan.tileElems, func(i idx, sz int) {
		b.Load(aName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecA, plan.offs[0])
		b.Load(bName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecB, plan.offs[1])
		b.Wait(tagVecA)
		b.Wait(tagVecB)
		spec := codegen.EltSpec{Op: op, Rows: 1, Cols: sz, VLEN: vlen,
			AOff: plan.offs[0], BOff: plan.offs[1], OutOff: plan.offs[2]}
		id := spec.Signature() + "@0"
		st.emitComputeKernel(b, spec.Signature(), id, func() *isa.Program { return codegen.Eltwise(spec) })
		b.Store(outName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecSt, plan.offs[2])
	})
	return st.addTOG(b, n.ID)
}

// lowerEltwiseUnary lowers relu/gelu/tanh/scale over flattened tensors.
func (st *state) lowerEltwiseUnary(n *graph.Node, op codegen.EltOp, scale float32) error {
	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	total := elems(n.Shape)
	plan, err := st.planFlat(total, 2)
	if err != nil {
		return err
	}
	vlen := st.c.Cfg.Core.VLEN()
	b := tog.NewBuilder(fmt.Sprintf("%s_n%d", op, n.ID), aName, outName)
	emitDim(b, "i", total, plan.tileElems, func(i idx, sz int) {
		b.Load(aName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecA, plan.offs[0])
		b.Wait(tagVecA)
		spec := codegen.EltSpec{Op: op, Rows: 1, Cols: sz, ScaleF: scale, VLEN: vlen,
			AOff: plan.offs[0], OutOff: plan.offs[1]}
		id := spec.Signature() + fmt.Sprintf("@s%g", scale)
		st.emitComputeKernel(b, spec.Signature()+fmt.Sprintf("_s%g", scale), id,
			func() *isa.Program { return codegen.Eltwise(spec) })
		b.Store(outName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecSt, plan.offs[1])
	})
	return st.addTOG(b, n.ID)
}

// lowerRowwise is the shared shape for layers that process row tiles of a
// 2-D tensor with per-row or per-column auxiliary vectors (bias_add,
// softmax, layernorm).
func (st *state) lowerRowwise(
	n *graph.Node, name string,
	rows, cols int,
	aux []auxVec, // auxiliary row vectors loaded once per tile
	mk func(rt int, offs rowOffsets) (sig, id string, gen func() *isa.Program),
) error {
	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	budget := st.spadBudget()
	rowBytes := int64(cols) * 4
	auxBytes := int64(len(aux)) * rowBytes
	maxRows := (budget - auxBytes - 512) / (2 * rowBytes)
	if maxRows < 1 {
		return fmt.Errorf("%s: rows of %d cols do not fit scratchpad", name, cols)
	}
	rt := rows
	if int64(rt) > maxRows {
		rt = int(maxRows)
	}
	if rt > 256 {
		rt = 256
	}
	var offs rowOffsets
	cur := int64(0)
	take := func(bytes int64) int64 {
		off := cur
		cur += (bytes + 255) &^ 255
		return off
	}
	offs.a = take(int64(rt) * rowBytes)
	offs.out = take(int64(rt) * rowBytes)
	for range aux {
		offs.aux = append(offs.aux, take(rowBytes))
	}

	b := tog.NewBuilder(fmt.Sprintf("%s_n%d", name, n.ID), aName, outName)
	for _, av := range aux {
		b.DeclareTensor(av.tensor)
	}
	// Aux vectors load once, before the tile loop.
	for i, av := range aux {
		b.Load(av.tensor, npu.DMADesc{Rows: 1, Cols: cols}, tog.AddrExpr{}, tagVecC, offs.aux[i])
	}
	emitDim(b, "r", rows, rt, func(r idx, sz int) {
		b.Load(aName, npu.DMADesc{Rows: sz, Cols: cols}, r.addr(int64(rt)*rowBytes), tagVecA, offs.a)
		b.Wait(tagVecA)
		if len(aux) > 0 {
			b.Wait(tagVecC)
		}
		sig, id, gen := mk(sz, offs)
		st.emitComputeKernel(b, sig, id, gen)
		b.Store(outName, npu.DMADesc{Rows: sz, Cols: cols}, r.addr(int64(rt)*rowBytes), tagVecSt, offs.out)
	})
	return st.addTOG(b, n.ID)
}

type auxVec struct{ tensor string }

type rowOffsets struct {
	a, out int64
	aux    []int64
}

// lowerBiasAdd handles a standalone (unfused) bias_add.
func (st *state) lowerBiasAdd(n *graph.Node) error {
	rows, cols := n.Shape[0], n.Shape[1]
	biasName := st.tensorOf[n.Inputs[1]]
	vlen := st.c.Cfg.Core.VLEN()
	return st.lowerRowwise(n, "bias_add", rows, cols,
		[]auxVec{{tensor: biasName}},
		func(rt int, offs rowOffsets) (string, string, func() *isa.Program) {
			spec := codegen.EltSpec{Op: codegen.EltBiasAdd, Rows: rt, Cols: cols, VLEN: vlen,
				AOff: offs.a, BOff: offs.aux[0], OutOff: offs.out}
			return spec.Signature(), spec.Signature() + "@r", func() *isa.Program { return codegen.Eltwise(spec) }
		})
}

// lowerScaleShift handles a standalone folded-BN over (H*W*N, C) data:
// per-column gamma/beta replicated N times.
func (st *state) lowerScaleShift(n *graph.Node) error {
	shape := n.Shape // NCHW logical
	N, C, H, W := shape[0], shape[1], shape[2], shape[3]
	rows, cols := H*W, N*C
	gName := st.tensorOf[n.Inputs[1]]
	bName := st.tensorOf[n.Inputs[2]]
	vlen := st.c.Cfg.Core.VLEN()

	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	budget := st.spadBudget()
	rowBytes := int64(cols) * 4
	gbBytes := 2 * rowBytes
	maxRows := (budget - gbBytes - 512) / (2 * rowBytes)
	if maxRows < 1 {
		return fmt.Errorf("scale_shift rows of %d cols do not fit scratchpad", cols)
	}
	rt := minInt(rows, minInt(int(maxRows), 256))
	offA := int64(0)
	offOut := (int64(rt)*rowBytes + 255) &^ 255
	offGB := offOut + ((int64(rt)*rowBytes + 255) &^ 255)

	b := tog.NewBuilder(fmt.Sprintf("scale_shift_n%d", n.ID), aName, gName, bName, outName)
	// Replicate gamma and beta N times into one (2, N*C) block.
	for rep := 0; rep < N; rep++ {
		b.Load(gName, npu.DMADesc{Rows: 1, Cols: C}, tog.AddrExpr{}, tagVecC, offGB+int64(rep*C*4))
		b.Load(bName, npu.DMADesc{Rows: 1, Cols: C}, tog.AddrExpr{}, tagVecC, offGB+rowBytes+int64(rep*C*4))
	}
	emitDim(b, "r", rows, rt, func(r idx, sz int) {
		b.Load(aName, npu.DMADesc{Rows: sz, Cols: cols}, r.addr(int64(rt)*rowBytes), tagVecA, offA)
		b.Wait(tagVecA)
		b.Wait(tagVecC)
		spec := codegen.EltSpec{Op: codegen.EltScaleSh, Rows: sz, Cols: cols, VLEN: vlen,
			AOff: offA, BOff: offGB, OutOff: offOut}
		st.emitComputeKernel(b, spec.Signature(), spec.Signature()+"@r",
			func() *isa.Program { return codegen.Eltwise(spec) })
		b.Store(outName, npu.DMADesc{Rows: sz, Cols: cols}, r.addr(int64(rt)*rowBytes), tagVecSt, offOut)
	})
	return st.addTOG(b, n.ID)
}

// lowerSoftmax lowers a row-wise softmax (wide rows use the multi-pass
// kernel automatically).
func (st *state) lowerSoftmax(n *graph.Node) error {
	rows, cols := n.Shape[0], n.Shape[1]
	vlen := st.c.Cfg.Core.VLEN()
	return st.lowerRowwise(n, "softmax", rows, cols, nil,
		func(rt int, offs rowOffsets) (string, string, func() *isa.Program) {
			spec := codegen.SoftmaxSpec{Rows: rt, Cols: cols, VLEN: vlen, AOff: offs.a, OutOff: offs.out}
			return spec.Signature(), spec.Signature() + "@r", func() *isa.Program { return codegen.Softmax(spec) }
		})
}

// lowerLayerNorm lowers a row-wise layernorm with gamma/beta vectors (wide
// rows use the multi-pass kernel automatically).
func (st *state) lowerLayerNorm(n *graph.Node) error {
	rows, cols := n.Shape[0], n.Shape[1]
	vlen := st.c.Cfg.Core.VLEN()
	gName := st.tensorOf[n.Inputs[1]]
	bName := st.tensorOf[n.Inputs[2]]
	eps := n.Eps
	return st.lowerRowwise(n, "layernorm", rows, cols,
		[]auxVec{{tensor: gName}, {tensor: bName}},
		func(rt int, offs rowOffsets) (string, string, func() *isa.Program) {
			spec := codegen.LayerNormSpec{Rows: rt, Cols: cols, VLEN: vlen, Eps: eps,
				AOff: offs.a, GOff: offs.aux[0], BOff: offs.aux[1], OutOff: offs.out}
			return spec.Signature(), spec.Signature() + "@r", func() *isa.Program { return codegen.LayerNorm(spec) }
		})
}

// lowerRMSNorm lowers a row-wise RMS norm with a gamma vector (wide rows
// use the multi-pass kernel automatically).
func (st *state) lowerRMSNorm(n *graph.Node) error {
	rows, cols := n.Shape[0], n.Shape[1]
	vlen := st.c.Cfg.Core.VLEN()
	gName := st.tensorOf[n.Inputs[1]]
	eps := n.Eps
	return st.lowerRowwise(n, "rmsnorm", rows, cols,
		[]auxVec{{tensor: gName}},
		func(rt int, offs rowOffsets) (string, string, func() *isa.Program) {
			spec := codegen.RMSNormSpec{Rows: rt, Cols: cols, VLEN: vlen, Eps: eps,
				AOff: offs.a, GOff: offs.aux[0], OutOff: offs.out}
			return spec.Signature(), spec.Signature() + "@r", func() *isa.Program { return codegen.RMSNorm(spec) }
		})
}

// lowerColSum lowers the (M,N)->(N,) reduction. The whole input must fit in
// scratchpad (true for every workload in the evaluation).
func (st *state) lowerColSum(n *graph.Node) error {
	in := st.g.Nodes[n.Inputs[0]]
	rows, cols := in.Shape[0], in.Shape[1]
	vlen := st.c.Cfg.Core.VLEN()
	inBytes := int64(rows*cols) * 4
	outBytes := int64(cols) * 4
	if inBytes+outBytes > st.spadBudget() {
		return fmt.Errorf("col_sum input (%d bytes) exceeds scratchpad budget", inBytes)
	}
	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	offA, offOut := int64(0), (inBytes+255)&^255
	b := tog.NewBuilder(fmt.Sprintf("col_sum_n%d", n.ID), aName, outName)
	b.Load(aName, npu.DMADesc{Rows: rows, Cols: cols}, tog.AddrExpr{}, tagVecA, offA)
	b.Wait(tagVecA)
	spec := codegen.ColSumSpec{Rows: rows, Cols: cols, VLEN: vlen, AOff: offA, OutOff: offOut}
	st.emitComputeKernel(b, spec.Signature(), spec.Signature()+"@r",
		func() *isa.Program { return codegen.ColSum(spec) })
	b.Store(outName, npu.DMADesc{Rows: 1, Cols: cols}, tog.AddrExpr{}, tagVecSt, offOut)
	return st.addTOG(b, n.ID)
}

// lowerSGD lowers the optimizer update over flattened parameters.
func (st *state) lowerSGD(n *graph.Node) error {
	outName, _ := st.allocOut(n)
	wName := st.tensorOf[n.Inputs[0]]
	gName := st.tensorOf[n.Inputs[1]]
	total := elems(n.Shape)
	plan, err := st.planFlat(total, 3)
	if err != nil {
		return err
	}
	vlen := st.c.Cfg.Core.VLEN()
	b := tog.NewBuilder(fmt.Sprintf("sgd_n%d", n.ID), wName, gName, outName)
	emitDim(b, "i", total, plan.tileElems, func(i idx, sz int) {
		b.Load(wName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecA, plan.offs[0])
		b.Load(gName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecB, plan.offs[1])
		b.Wait(tagVecA)
		b.Wait(tagVecB)
		spec := codegen.SGDSpec{N: sz, LR: n.ScaleF, VLEN: vlen,
			WOff: plan.offs[0], GOff: plan.offs[1], OutOff: plan.offs[2]}
		id := spec.Signature() + fmt.Sprintf("@lr%g", n.ScaleF)
		st.emitComputeKernel(b, spec.Signature()+fmt.Sprintf("_lr%g", n.ScaleF), id,
			func() *isa.Program { return codegen.SGD(spec) })
		b.Store(outName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecSt, plan.offs[2])
	})
	return st.addTOG(b, n.ID)
}

// lowerAXPBY lowers the fused blend alpha*a + beta*b over flattened
// tensors (momentum / EMA optimizer state updates).
func (st *state) lowerAXPBY(n *graph.Node) error {
	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	bName := st.tensorOf[n.Inputs[1]]
	total := elems(n.Shape)
	plan, err := st.planFlat(total, 3)
	if err != nil {
		return err
	}
	vlen := st.c.Cfg.Core.VLEN()
	alpha, beta := n.Alpha, n.Beta
	b := tog.NewBuilder(fmt.Sprintf("axpby_n%d", n.ID), aName, bName, outName)
	emitDim(b, "i", total, plan.tileElems, func(i idx, sz int) {
		b.Load(aName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecA, plan.offs[0])
		b.Load(bName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecB, plan.offs[1])
		b.Wait(tagVecA)
		b.Wait(tagVecB)
		spec := codegen.AXPBYSpec{N: sz, Alpha: alpha, Beta: beta, VLEN: vlen,
			AOff: plan.offs[0], BOff: plan.offs[1], OutOff: plan.offs[2]}
		id := spec.Signature() + fmt.Sprintf("@a%g_b%g", alpha, beta)
		st.emitComputeKernel(b, spec.Signature(), id,
			func() *isa.Program { return codegen.AXPBY(spec) })
		b.Store(outName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecSt, plan.offs[2])
	})
	return st.addTOG(b, n.ID)
}

// lowerAdam lowers the fused Adam parameter step. The 2-element coef
// tensor (negated bias-corrected step size, epsilon) loads once; the
// parameter, first moment, and second moment stream through in tiles.
func (st *state) lowerAdam(n *graph.Node) error {
	outName, _ := st.allocOut(n)
	pName := st.tensorOf[n.Inputs[0]]
	mName := st.tensorOf[n.Inputs[1]]
	vName := st.tensorOf[n.Inputs[2]]
	cName := st.tensorOf[n.Inputs[3]]
	total := elems(n.Shape)
	plan, err := st.planFlat(total, 5)
	if err != nil {
		return err
	}
	vlen := st.c.Cfg.Core.VLEN()
	b := tog.NewBuilder(fmt.Sprintf("adam_n%d", n.ID), pName, mName, vName, cName, outName)
	// Coefficients occupy the tail buffer slot; loaded once.
	coefOff := plan.offs[4]
	b.Load(cName, npu.DMADesc{Rows: 1, Cols: 2}, tog.AddrExpr{}, tagVecC, coefOff)
	emitDim(b, "i", total, plan.tileElems, func(i idx, sz int) {
		b.Load(pName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecA, plan.offs[0])
		b.Load(mName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecB, plan.offs[1])
		b.Load(vName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecB, plan.offs[2])
		b.Wait(tagVecA)
		b.Wait(tagVecB)
		b.Wait(tagVecC)
		spec := codegen.AdamSpec{N: sz, VLEN: vlen, Decay: n.ScaleF,
			POff: plan.offs[0], MOff: plan.offs[1], VOff: plan.offs[2],
			CoefOff: coefOff, OutOff: plan.offs[3]}
		id := spec.Signature() + fmt.Sprintf("@d%g", n.ScaleF)
		st.emitComputeKernel(b, spec.Signature(), id,
			func() *isa.Program { return codegen.AdamStep(spec) })
		b.Store(outName, npu.DMADesc{Rows: 1, Cols: sz}, i.addr(int64(plan.tileElems)*4), tagVecSt, plan.offs[3])
	})
	return st.addTOG(b, n.ID)
}

// lowerSoftmaxCE lowers the fused loss (and gradient) layer; logits and
// labels must fit in scratchpad (batch-sized tensors).
func (st *state) lowerSoftmaxCE(n *graph.Node, withGrad bool) error {
	logits := st.g.Nodes[n.Inputs[0]]
	rows, cols := logits.Shape[0], logits.Shape[1]
	vlen := st.c.Cfg.Core.VLEN()
	if cols > vlen {
		return fmt.Errorf("softmax_ce over %d cols exceeds VLEN %d", cols, vlen)
	}
	if rows > vlen {
		return fmt.Errorf("softmax_ce over %d rows (batch) exceeds VLEN %d", rows, vlen)
	}
	inBytes := int64(rows*cols) * 4
	if 2*inBytes+int64(rows)*4+1024 > st.spadBudget() {
		return fmt.Errorf("softmax_ce batch does not fit scratchpad")
	}
	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	lName := st.tensorOf[n.Inputs[1]]
	cur := int64(0)
	take := func(bytes int64) int64 {
		off := cur
		cur += (bytes + 255) &^ 255
		return off
	}
	offA := take(inBytes)
	offLabels := take(int64(rows) * 4)
	offLoss := take(64 + int64(rows)*4 + 64) // loss slot + label-prob staging row
	offGrad := take(inBytes)                 // probability rows (grad when WithGrad)

	b := tog.NewBuilder(fmt.Sprintf("softmax_ce_n%d", n.ID), aName, lName, outName)
	b.Load(aName, npu.DMADesc{Rows: rows, Cols: cols}, tog.AddrExpr{}, tagVecA, offA)
	b.Load(lName, npu.DMADesc{Rows: 1, Cols: rows}, tog.AddrExpr{}, tagVecB, offLabels)
	b.Wait(tagVecA)
	b.Wait(tagVecB)
	spec := codegen.SoftmaxCESpec{Rows: rows, Cols: cols, VLEN: vlen, WithGrad: withGrad,
		AOff: offA, LabelOff: offLabels, LossOff: offLoss, GradOff: offGrad}
	st.emitComputeKernel(b, spec.Signature(), spec.Signature()+"@r",
		func() *isa.Program { return codegen.SoftmaxCE(spec) })
	if withGrad {
		b.Store(outName, npu.DMADesc{Rows: rows, Cols: cols}, tog.AddrExpr{}, tagVecSt, offGrad)
	} else {
		b.Store(outName, npu.DMADesc{Rows: 1, Cols: 1}, tog.AddrExpr{}, tagVecSt, offLoss)
	}
	return st.addTOG(b, n.ID)
}

// lowerMaxPool lowers spatial max pooling over (H*W*N, C)-laid-out data:
// row groups are loaded, then one strided pooling kernel runs per (n, c).
func (st *state) lowerMaxPool(n *graph.Node) error {
	in := st.g.Nodes[n.Inputs[0]]
	N, C, W := in.Shape[0], in.Shape[1], in.Shape[3]
	OH, OW := n.Shape[2], n.Shape[3]
	window, stride := n.Window, n.Stride
	vlen := st.c.Cfg.Core.VLEN()

	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	rowBytes := int64(W*N*C) * 4
	outRowBytes := int64(OW*N*C) * 4
	// Group output rows so the input region fits.
	budget := st.spadBudget()
	g := OH
	for g > 1 && int64((g-1)*stride+window)*rowBytes+int64(g)*outRowBytes > budget {
		g--
	}
	if int64((g-1)*stride+window)*rowBytes+int64(g)*outRowBytes > budget {
		return fmt.Errorf("maxpool region does not fit scratchpad")
	}
	regionRows := (g-1)*stride + window
	offIn := int64(0)
	offOut := (int64(regionRows)*rowBytes + 255) &^ 255

	b := tog.NewBuilder(fmt.Sprintf("maxpool_n%d", n.ID), aName, outName)
	emitDim(b, "oyg", OH, g, func(oyg idx, rows int) {
		rr := (rows-1)*stride + window
		b.Load(aName, npu.DMADesc{Rows: rr, Cols: W * N * C}, oyg.addr(int64(g*stride)*rowBytes), tagVecA, offIn)
		b.Wait(tagVecA)
		// One kernel per (n, c): strided access over the interleaved layout.
		for nc := 0; nc < N*C; nc++ {
			spec := strided2DPool{
				Rows: rows, OW: OW, W: W, NC: N * C,
				Window: window, Stride: stride, VLEN: vlen,
				AOff: offIn + int64(nc*4), OutOff: offOut + int64(nc*4),
			}
			id := fmt.Sprintf("%s@%d", spec.Signature(), nc)
			st.emitComputeKernel(b, spec.Signature(), id,
				func() *isa.Program { return spec.build() })
		}
		b.Store(outName, npu.DMADesc{Rows: rows, Cols: OW * N * C}, oyg.addr(int64(g)*outRowBytes), tagVecSt, offOut)
	})
	return st.addTOG(b, n.ID)
}

// strided2DPool adapts the pooling kernel to the interleaved (pos, n*c)
// layout: element (y, x) of a plane lives at (y*W + x)*NC*4.
type strided2DPool struct {
	Rows, OW, W, NC      int
	Window, Stride, VLEN int
	AOff, OutOff         int64
}

func (s strided2DPool) Signature() string {
	return fmt.Sprintf("pool2d_r%d_ow%d_w%d_nc%d_k%d_s%d_v%d", s.Rows, s.OW, s.W, s.NC, s.Window, s.Stride, s.VLEN)
}

func (s strided2DPool) build() *isa.Program {
	// Reuse the plane-pool kernel shape with the element stride scaled by
	// the channel interleave.
	return codegen.PlanePoolStrided(codegen.PlanePoolSpec{
		H: (s.Rows-1)*s.Stride + s.Window, W: s.W, OH: s.Rows, OW: s.OW,
		Window: s.Window, Stride: s.Stride, VLEN: s.VLEN,
		AOff: s.AOff, OutOff: s.OutOff,
	}, s.NC)
}

// lowerAvgPool lowers global average pooling over (H*W*N, C) data as a
// column-sum over (H*W, N*C) followed by scaling.
func (st *state) lowerAvgPool(n *graph.Node) error {
	in := st.g.Nodes[n.Inputs[0]]
	N, C, H, W := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	rows, cols := H*W, N*C
	vlen := st.c.Cfg.Core.VLEN()
	inBytes := int64(rows*cols) * 4
	if inBytes+int64(cols)*8 > st.spadBudget() {
		return fmt.Errorf("avgpool input (%d bytes) exceeds scratchpad budget", inBytes)
	}
	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	offA := int64(0)
	offSum := (inBytes + 255) &^ 255
	offOut := offSum + 256 + int64(cols)*4

	b := tog.NewBuilder(fmt.Sprintf("avgpool_n%d", n.ID), aName, outName)
	b.Load(aName, npu.DMADesc{Rows: rows, Cols: cols}, tog.AddrExpr{}, tagVecA, offA)
	b.Wait(tagVecA)
	csSpec := codegen.ColSumSpec{Rows: rows, Cols: cols, VLEN: vlen, AOff: offA, OutOff: offSum}
	st.emitComputeKernel(b, csSpec.Signature(), csSpec.Signature()+"@g",
		func() *isa.Program { return codegen.ColSum(csSpec) })
	scSpec := codegen.EltSpec{Op: codegen.EltScale, Rows: 1, Cols: cols, ScaleF: 1 / float32(rows),
		VLEN: vlen, AOff: offSum, OutOff: offOut}
	st.emitComputeKernel(b, scSpec.Signature()+fmt.Sprintf("_s%g", scSpec.ScaleF),
		scSpec.Signature()+"@g", func() *isa.Program { return codegen.Eltwise(scSpec) })
	b.Store(outName, npu.DMADesc{Rows: 1, Cols: cols}, tog.AddrExpr{}, tagVecSt, offOut)
	return st.addTOG(b, n.ID)
}

// lowerTranspose lowers a 2-D transpose as a pure DMA layer through the
// transpose-capable DMA engine.
func (st *state) lowerTranspose(n *graph.Node) error {
	in := st.g.Nodes[n.Inputs[0]]
	rows, cols := in.Shape[0], in.Shape[1]
	outName, _ := st.allocOut(n)
	aName := st.tensorOf[n.Inputs[0]]
	bytes := int64(rows*cols) * 4
	if 2*bytes > st.spadBudget() {
		// Tile by column stripes of the source.
		return st.lowerTransposeTiled(n, rows, cols)
	}
	b := tog.NewBuilder(fmt.Sprintf("transpose_n%d", n.ID), aName, outName)
	b.Load(aName, npu.DMADesc{Rows: rows, Cols: cols, Transpose: true}, tog.AddrExpr{}, tagVecA, 0)
	b.Wait(tagVecA)
	b.Store(outName, npu.DMADesc{Rows: cols, Cols: rows}, tog.AddrExpr{}, tagVecSt, 0)
	return st.addTOG(b, n.ID)
}

func (st *state) lowerTransposeTiled(n *graph.Node, rows, cols int) error {
	outName := st.tensorOf[n.ID]
	aName := st.tensorOf[n.Inputs[0]]
	budget := st.spadBudget()
	ct := int(budget / (int64(rows) * 4) / 2)
	if ct < 1 {
		return fmt.Errorf("transpose of (%d,%d) does not fit scratchpad", rows, cols)
	}
	if ct > cols {
		ct = cols
	}
	b := tog.NewBuilder(fmt.Sprintf("transpose_n%d", n.ID), aName, outName)
	emitDim(b, "c", cols, ct, func(c idx, sz int) {
		b.Load(aName, npu.DMADesc{Rows: rows, Cols: sz, DRAMStride: cols * 4, Transpose: true},
			c.addr(int64(ct)*4), tagVecA, 0)
		b.Wait(tagVecA)
		b.Store(outName, npu.DMADesc{Rows: sz, Cols: rows}, c.addr(int64(ct*rows)*4), tagVecSt, 0)
	})
	return st.addTOG(b, n.ID)
}

func elems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
