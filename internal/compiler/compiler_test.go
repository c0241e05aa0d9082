package compiler

import (
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/tensor"
	"repro/internal/togsim"
)

func small() npu.Config { return npu.SmallConfig() }

// compileAndRunTLS compiles g and returns the TLS cycle count.
func compileAndRunTLS(t *testing.T, cfg npu.Config, opts Options, g *graph.Graph) (int64, *Compiled) {
	t.Helper()
	c := New(cfg, opts)
	comp, err := c.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	s := togsim.NewStandard(cfg, togsim.SimpleNet, dram.FRFCFS)
	res, err := s.Engine.Run([]*togsim.Job{comp.Job(g.Name, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles, comp
}

func linearGraph(m, k, n int, withEpi bool) *graph.Graph {
	g := graph.New("linear")
	x := g.Input("x", m, k)
	w := g.Param("w", k, n)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Name: "mm", Inputs: []int{x.ID, w.ID}, Shape: []int{m, n}})
	out := mm
	if withEpi {
		bias := g.Param("b", n)
		ba := g.Add(&graph.Node{Op: graph.OpBiasAdd, Name: "ba", Inputs: []int{mm.ID, bias.ID}, Shape: []int{m, n}})
		out = g.Add(&graph.Node{Op: graph.OpReLU, Name: "relu", Inputs: []int{ba.ID}, Shape: []int{m, n}})
	}
	g.Outputs = []int{out.ID}
	return g
}

func TestCompileMatMulAndRunTLS(t *testing.T) {
	cycles, comp := compileAndRunTLS(t, small(), DefaultOptions(), linearGraph(16, 24, 12, false))
	if cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	if len(comp.TOGs) != 1 {
		t.Fatalf("expected 1 TOG, got %d", len(comp.TOGs))
	}
	stats, err := comp.TOGs[0].CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	// 16x24 input + 24x12 weights loaded at least once; 16x12 stored.
	if stats.LoadBytes < int64(16*24+24*12)*4 {
		t.Fatalf("LoadBytes = %d too small", stats.LoadBytes)
	}
	if stats.StoreBytes < 16*12*4 {
		t.Fatalf("StoreBytes = %d too small", stats.StoreBytes)
	}
}

func TestFunctionalMatMulMatchesCPU(t *testing.T) {
	g := linearGraph(10, 20, 9, false)
	c := New(small(), DefaultOptions())
	comp, err := c.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.FunctionalOK {
		t.Fatal("matmul must be functionally executable")
	}
	r := tensor.NewRNG(1)
	env := graph.NewEnv().
		Set("x", tensor.RandNormal(r, 0, 1, 10, 20)).
		Set("w", tensor.RandNormal(r, 0, 1, 20, 9))
	got, err := RunFunctional(comp, g, env)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := graph.Execute(g, env)
	if err != nil {
		t.Fatal(err)
	}
	outName := comp.OutputTensors[g.Outputs[0]]
	if !tensor.AllClose(got[outName], cpu[g.Outputs[0]], 1e-4, 1e-4) {
		t.Fatalf("NPU result differs from CPU:\n npu %v\n cpu %v", got[outName], cpu[g.Outputs[0]])
	}
}

func TestFusionReducesTOGsAndStaysCorrect(t *testing.T) {
	g := linearGraph(8, 16, 8, true)
	fused := New(small(), DefaultOptions())
	compF, err := fused.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Fusion = false
	unfused := New(small(), opts)
	compU, err := unfused.Compile(linearGraph(8, 16, 8, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(compF.TOGs) >= len(compU.TOGs) {
		t.Fatalf("fusion should reduce TOG count: %d vs %d", len(compF.TOGs), len(compU.TOGs))
	}
	// Both must produce the CPU result.
	r := tensor.NewRNG(2)
	env := graph.NewEnv().
		Set("x", tensor.RandNormal(r, 0, 1, 8, 16)).
		Set("w", tensor.RandNormal(r, 0, 1, 16, 8)).
		Set("b", tensor.RandNormal(r, 0, 1, 8))
	cpu, err := graph.Execute(g, env)
	if err != nil {
		t.Fatal(err)
	}
	want := cpu[g.Outputs[0]]
	gotF, err := RunFunctional(compF, g, env)
	if err != nil {
		t.Fatal(err)
	}
	g2 := linearGraph(8, 16, 8, true)
	gotU, err := RunFunctional(compU, g2, env)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(gotF[compF.OutputTensors[g.Outputs[0]]], want, 1e-4, 1e-4) {
		t.Fatal("fused result wrong")
	}
	if !tensor.AllClose(gotU[compU.OutputTensors[g2.Outputs[0]]], want, 1e-4, 1e-4) {
		t.Fatal("unfused result wrong")
	}
	// Fusion also eliminates the intermediate DMA round trips.
	bytes := func(c *Compiled) int64 {
		var total int64
		for _, tg := range c.TOGs {
			s, err := tg.CollectStats()
			if err != nil {
				t.Fatal(err)
			}
			total += s.LoadBytes + s.StoreBytes
		}
		return total
	}
	if bytes(compF) >= bytes(compU) {
		t.Fatalf("fusion must reduce DMA traffic: %d vs %d", bytes(compF), bytes(compU))
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	r := tensor.NewRNG(3)
	// matmul_ta: A stored (K,M).
	g := graph.New("ta")
	a := g.Input("a", 12, 7) // K=12, M=7
	bb := g.Input("b", 12, 9)
	ta := g.Add(&graph.Node{Op: graph.OpMatMulTA, Inputs: []int{a.ID, bb.ID}, Shape: []int{7, 9}})
	g.Outputs = []int{ta.ID}
	c := New(small(), DefaultOptions())
	comp, err := c.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	env := graph.NewEnv().
		Set("a", tensor.RandNormal(r, 0, 1, 12, 7)).
		Set("b", tensor.RandNormal(r, 0, 1, 12, 9))
	got, err := RunFunctional(comp, g, env)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := graph.Execute(g, env)
	if !tensor.AllClose(got[comp.OutputTensors[ta.ID]], cpu[ta.ID], 1e-4, 1e-4) {
		t.Fatal("matmul_ta through NPU wrong")
	}

	// matmul_tb: B stored (N,K).
	g2 := graph.New("tb")
	a2 := g2.Input("a", 6, 11)
	b2 := g2.Input("b", 5, 11)
	tb := g2.Add(&graph.Node{Op: graph.OpMatMulTB, Inputs: []int{a2.ID, b2.ID}, Shape: []int{6, 5}})
	g2.Outputs = []int{tb.ID}
	comp2, err := New(small(), DefaultOptions()).Compile(g2)
	if err != nil {
		t.Fatal(err)
	}
	env2 := graph.NewEnv().
		Set("a", tensor.RandNormal(r, 0, 1, 6, 11)).
		Set("b", tensor.RandNormal(r, 0, 1, 5, 11))
	got2, err := RunFunctional(comp2, g2, env2)
	if err != nil {
		t.Fatal(err)
	}
	cpu2, _ := graph.Execute(g2, env2)
	if !tensor.AllClose(got2[comp2.OutputTensors[tb.ID]], cpu2[tb.ID], 1e-4, 1e-4) {
		t.Fatal("matmul_tb through NPU wrong")
	}
}

func TestVectorLayersFunctional(t *testing.T) {
	r := tensor.NewRNG(4)
	rows, cols := 6, 16
	g := graph.New("vec")
	x := g.Input("x", rows, cols)
	y := g.Input("y", rows, cols)
	gam := g.Param("gam", cols)
	bet := g.Param("bet", cols)
	sum := g.Add(&graph.Node{Op: graph.OpAdd, Inputs: []int{x.ID, y.ID}, Shape: []int{rows, cols}})
	sm := g.Add(&graph.Node{Op: graph.OpSoftmax, Inputs: []int{sum.ID}, Shape: []int{rows, cols}})
	ln := g.Add(&graph.Node{Op: graph.OpLayerNorm, Inputs: []int{sm.ID, gam.ID, bet.ID}, Shape: []int{rows, cols}})
	cs := g.Add(&graph.Node{Op: graph.OpColSum, Inputs: []int{ln.ID}, Shape: []int{cols}})
	g.Outputs = []int{ln.ID, cs.ID}
	comp, err := New(small(), DefaultOptions()).Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	env := graph.NewEnv().
		Set("x", tensor.RandNormal(r, 0, 1, rows, cols)).
		Set("y", tensor.RandNormal(r, 0, 1, rows, cols)).
		Set("gam", tensor.Full(1.5, cols)).
		Set("bet", tensor.Full(-0.5, cols))
	got, err := RunFunctional(comp, g, env)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := graph.Execute(g, env)
	if !tensor.AllClose(got[comp.OutputTensors[ln.ID]], cpu[ln.ID], 1e-3, 1e-3) {
		t.Fatal("layernorm chain through NPU wrong")
	}
	if !tensor.AllClose(got[comp.OutputTensors[cs.ID]], cpu[cs.ID], 1e-3, 1e-3) {
		t.Fatal("col_sum through NPU wrong")
	}
}

func TestMLPForwardFunctionalMatchesCPU(t *testing.T) {
	cfg := nn.MLPConfig{Batch: 4, In: 32, Hidden: 16, Classes: 8}
	m := nn.MLP(cfg)
	comp, err := New(small(), DefaultOptions()).Compile(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	env := m.InitParams(5)
	r := tensor.NewRNG(6)
	env.Set("x", tensor.RandNormal(r, 0, 1, 4, 32))
	got, err := RunFunctional(comp, m.Graph, env)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := graph.Execute(m.Graph, env)
	if !tensor.AllClose(got[comp.OutputTensors[m.OutputID]], cpu[m.OutputID], 1e-3, 1e-3) {
		t.Fatal("MLP forward through NPU differs from CPU")
	}
}

func TestMLPTrainingStepFunctionalMatchesCPU(t *testing.T) {
	cfg := nn.MLPConfig{Batch: 4, In: 20, Hidden: 12, Classes: 5}
	m, lossID := nn.MLPWithLoss(cfg)
	ts, err := autograd.Build(m.Graph, lossID, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := New(small(), DefaultOptions()).Compile(ts.Graph)
	if err != nil {
		t.Fatal(err)
	}
	env := m.InitParams(7)
	r := tensor.NewRNG(8)
	env.Set("x", tensor.RandNormal(r, 0, 1, 4, 20))
	labels := tensor.New(4)
	for i := range labels.Data {
		labels.Data[i] = float32(r.Intn(5))
	}
	env.Set("labels", labels)

	got, err := RunFunctional(comp, ts.Graph, env)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := graph.Execute(ts.Graph, env)
	// Loss matches.
	lossName := comp.OutputTensors[lossID]
	if lossName == "" {
		t.Fatal("loss output not recorded")
	}
	npuLoss := got[lossName].Data[0]
	cpuLoss := cpu[lossID].Data[0]
	if d := npuLoss - cpuLoss; d > 1e-3 || d < -1e-3 {
		t.Fatalf("loss differs: NPU %g vs CPU %g", npuLoss, cpuLoss)
	}
	// Every updated parameter matches.
	for pname, uid := range ts.Updated {
		uname := comp.OutputTensors[uid]
		if uname == "" {
			t.Fatalf("update for %s not a recorded output", pname)
		}
		if !tensor.AllClose(got[uname], cpu[uid], 1e-3, 1e-3) {
			t.Fatalf("updated %s differs from CPU (max diff %g)", pname, tensor.MaxAbsDiff(got[uname], cpu[uid]))
		}
	}
}

func TestConvCompilesAndLayoutHeuristic(t *testing.T) {
	mk := func(batch, c int, opt bool) (int64, *Compiled) {
		cs := tensor.ConvShape{N: batch, C: c, H: 8, W: 8, K: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
		g := graph.New("conv")
		x := g.Input("x", batch, c, 8, 8)
		w := g.Param("w", 8, c, 3, 3)
		cv := g.Add(&graph.Node{Op: graph.OpConv2D, Inputs: []int{x.ID, w.ID}, Conv: cs,
			Shape: []int{batch, 8, 8, 8}})
		g.Outputs = []int{cv.ID}
		opts := DefaultOptions()
		opts.ConvLayoutOpt = opt
		cycles, comp := compileAndRunTLS(t, small(), opts, g)
		return cycles, comp
	}
	// Batch-1 conv: optimized mapping must beat per-position HWNC.
	slow, compSlow := mk(1, 4, false)
	fast, compFast := mk(1, 4, true)
	if fast >= slow {
		t.Fatalf("conv layout optimization must help at batch 1: opt %d vs unopt %d", fast, slow)
	}
	if compSlow.FunctionalOK || compFast.FunctionalOK {
		t.Fatal("conv compilations must be marked timing-only")
	}
	// Speedup should be substantial (paper reports 2.8-6.9x).
	if float64(slow)/float64(fast) < 1.5 {
		t.Fatalf("conv layout speedup only %.2fx", float64(slow)/float64(fast))
	}
}

func TestDMAModesCompileAndDiffer(t *testing.T) {
	g := linearGraph(32, 64, 16, false)
	run := func(mode DMAMode) int64 {
		opts := DefaultOptions()
		opts.DMA = mode
		cycles, _ := compileAndRunTLS(t, small(), opts, linearGraph(32, 64, 16, false))
		return cycles
	}
	_ = g
	coarse := run(DMACoarse)
	fine := run(DMAFine)
	sel := run(DMASelective)
	if coarse <= 0 || fine <= 0 || sel <= 0 {
		t.Fatal("all DMA modes must simulate")
	}
	// Fine-grained DMA overlaps panel loads with compute: not slower.
	if fine > coarse+coarse/10 {
		t.Fatalf("fine (%d) should not be much slower than coarse (%d)", fine, coarse)
	}
}

func TestMaxPoolAndAvgPoolCompile(t *testing.T) {
	g := graph.New("pool")
	x := g.Input("x", 1, 4, 8, 8)
	mp := g.Add(&graph.Node{Op: graph.OpMaxPool, Inputs: []int{x.ID}, Window: 2, Stride: 2,
		Shape: []int{1, 4, 4, 4}})
	ap := g.Add(&graph.Node{Op: graph.OpAvgPool, Inputs: []int{mp.ID}, Shape: []int{1, 4}})
	g.Outputs = []int{ap.ID}
	cycles, comp := compileAndRunTLS(t, small(), DefaultOptions(), g)
	if cycles <= 0 {
		t.Fatal("pooling did not simulate")
	}
	if len(comp.TOGs) != 2 {
		t.Fatalf("expected 2 TOGs, got %d", len(comp.TOGs))
	}
}

func TestKernelLatencyCacheIsShared(t *testing.T) {
	c := New(small(), DefaultOptions())
	if _, err := c.Compile(linearGraph(16, 24, 12, false)); err != nil {
		t.Fatal(err)
	}
	first := c.MeasureCount()
	if first == 0 {
		t.Fatal("expected kernel measurements")
	}
	// Same shapes: everything cached.
	if _, err := c.Compile(linearGraph(16, 24, 12, false)); err != nil {
		t.Fatal(err)
	}
	if c.MeasureCount() != first {
		t.Fatalf("second compile re-measured kernels: %d -> %d", first, c.MeasureCount())
	}
}

func TestBERTSmallCompilesAndMatchesCPU(t *testing.T) {
	cfg := nn.BERTSmallConfig(1, 4)
	cfg.Hidden = 16
	cfg.FFN = 16
	cfg.Heads = 2
	cfg.Layers = 1
	m := nn.BERT(cfg)
	comp, err := New(small(), DefaultOptions()).Compile(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	env := m.InitParams(9)
	r := tensor.NewRNG(10)
	env.Set("x", tensor.RandNormal(r, 0, 1, 4, 16))
	got, err := RunFunctional(comp, m.Graph, env)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := graph.Execute(m.Graph, env)
	outName := comp.OutputTensors[m.OutputID]
	if !tensor.AllClose(got[outName], cpu[m.OutputID], 5e-3, 5e-3) {
		t.Fatalf("BERT encoder through NPU differs from CPU (max diff %g)",
			tensor.MaxAbsDiff(got[outName], cpu[m.OutputID]))
	}
}

func TestReshapeAliases(t *testing.T) {
	g := graph.New("rs")
	x := g.Input("x", 4, 6)
	rs := g.Add(&graph.Node{Op: graph.OpReshape, Inputs: []int{x.ID}, Shape: []int{6, 4}})
	w := g.Param("w", 4, 3)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Inputs: []int{rs.ID, w.ID}, Shape: []int{6, 3}})
	g.Outputs = []int{mm.ID}
	comp, err := New(small(), DefaultOptions()).Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(11)
	xv := tensor.RandNormal(r, 0, 1, 4, 6)
	wv := tensor.RandNormal(r, 0, 1, 4, 3)
	env := graph.NewEnv().Set("x", xv).Set("w", wv)
	got, err := RunFunctional(comp, g, env)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := graph.Execute(g, env)
	if !tensor.AllClose(got[comp.OutputTensors[mm.ID]], cpu[mm.ID], 1e-4, 1e-4) {
		t.Fatal("reshape aliasing broken")
	}
}

func TestTPUv3CompileGEMM(t *testing.T) {
	// A paper-sized GEMM(512) on the full TPUv3 config.
	g := linearGraph(512, 512, 512, false)
	cycles, comp := compileAndRunTLS(t, npu.TPUv3Config(), DefaultOptions(), g)
	if cycles <= 0 {
		t.Fatal("no cycles")
	}
	// Sanity: cycles should be within an order of magnitude of the
	// dense-compute bound MACs / (SAs * 128 * 128).
	macs := int64(512 * 512 * 512)
	bound := macs / npu.TPUv3Config().Core.MACsPerCycle()
	if cycles < bound {
		t.Fatalf("cycles %d below compute bound %d", cycles, bound)
	}
	if cycles > bound*100 {
		t.Fatalf("cycles %d unreasonably above bound %d", cycles, bound)
	}
	_ = comp
}

// TestSquareGEMMFitsSmallScratchpad: square GEMMs whose float-count tile
// sizing overshoots the 256-byte-aligned scratchpad layout must shrink Mt
// and compile, and the shrunk plan must still compute the right product.
func TestSquareGEMMFitsSmallScratchpad(t *testing.T) {
	for _, n := range []int{96, 100, 128, 200, 256} {
		g := linearGraph(n, n, n, false)
		comp, err := New(small(), DefaultOptions()).Compile(g)
		if err != nil {
			t.Fatalf("GEMM(%d): %v", n, err)
		}
		r := tensor.NewRNG(uint64(n))
		env := graph.NewEnv().
			Set("x", tensor.RandNormal(r, 0, 1, n, n)).
			Set("w", tensor.RandNormal(r, 0, 1, n, n))
		got, err := RunFunctional(comp, g, env)
		if err != nil {
			t.Fatalf("GEMM(%d): %v", n, err)
		}
		cpu, err := graph.Execute(g, env)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(got[comp.OutputTensors[g.Outputs[0]]], cpu[g.Outputs[0]], 1e-3, 1e-3) {
			t.Fatalf("GEMM(%d): NPU result differs from CPU", n)
		}
	}
}

// A training step whose batch exceeds VLEN cannot lower its fused loss in
// one pass: the compile returns an error instead of panicking inside a
// codegen worker, where no caller can recover it.
func TestSoftmaxCEBatchBeyondVLENIsAnError(t *testing.T) {
	cfg := small()
	for _, batch := range []int{cfg.Core.VLEN() + 1, 64} {
		m, lossID := nn.MLPWithLoss(nn.DefaultMLP(batch))
		ts, err := autograd.Build(m.Graph, lossID, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(cfg, DefaultOptions()).Compile(ts.Graph)
		if err == nil || !strings.Contains(err.Error(), "exceeds VLEN") {
			t.Fatalf("batch %d (VLEN %d): want a softmax_ce VLEN error, got %v", batch, cfg.Core.VLEN(), err)
		}
	}
}
