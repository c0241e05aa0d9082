package baseline

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/tensor"
)

func TestExtractLayers(t *testing.T) {
	g := graph.New("mix")
	x := g.Input("x", 8, 16)
	w := g.Param("w", 16, 8)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Inputs: []int{x.ID, w.ID}, Shape: []int{8, 8}})
	sm := g.Add(&graph.Node{Op: graph.OpSoftmax, Inputs: []int{mm.ID}, Shape: []int{8, 8}})
	cs := tensor.ConvShape{N: 1, C: 3, H: 8, W: 8, K: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	xi := g.Input("xi", 1, 3, 8, 8)
	wf := g.Param("wf", 4, 3, 3, 3)
	cv := g.Add(&graph.Node{Op: graph.OpConv2D, Inputs: []int{xi.ID, wf.ID}, Conv: cs, Shape: []int{1, 4, 8, 8}})
	g.Outputs = []int{sm.ID, cv.ID}
	layers := ExtractLayers(g)
	// Softmax dropped; matmul and conv kept.
	if len(layers) != 2 {
		t.Fatalf("extracted %d layers, want 2", len(layers))
	}
	if layers[0].Kind != KindGEMM || layers[0].M != 8 || layers[0].K != 16 || layers[0].N != 8 {
		t.Fatalf("GEMM layer wrong: %+v", layers[0])
	}
	if layers[1].Kind != KindConv {
		t.Fatal("conv layer missing")
	}
	m, k, n := cs.GEMMDims()
	if layers[1].M != m || layers[1].K != k || layers[1].N != n {
		t.Fatalf("conv GEMM dims wrong: %+v", layers[1])
	}
}

func TestAnalyticalRoofline(t *testing.T) {
	cfg := npu.TPUv3Config()
	a := Analytical{Cfg: cfg}
	// Huge compute-bound GEMM: cycles ~ MACs/peak.
	big := Layer{Kind: KindGEMM, M: 2048, K: 2048, N: 2048}
	got := a.LayerCycles(big)
	want := big.MACs() / cfg.Core.MACsPerCycle()
	if got < want || got > want+want/10 {
		t.Fatalf("compute-bound roofline: got %d, want ~%d", got, want)
	}
	// Skinny memory-bound GEMM: cycles ~ bytes/BW.
	skinny := Layer{Kind: KindGEMM, M: 1, K: 8192, N: 8192}
	gotM := a.LayerCycles(skinny)
	wantM := skinny.Bytes() / int64(cfg.Mem.Channels*cfg.Mem.BurstBytes)
	if gotM < wantM || gotM > wantM+wantM/10 {
		t.Fatalf("memory-bound roofline: got %d, want ~%d", gotM, wantM)
	}
	// Sum over layers.
	if a.Run([]Layer{big, skinny}) != got+gotM {
		t.Fatal("Run must sum layers")
	}
}

func TestAnalyticalUnderestimatesRealTiming(t *testing.T) {
	// The roofline ignores fill/drain and per-row instruction overhead, so
	// it must be optimistic versus the SA tile closed form for small tiles.
	cfg := npu.SmallConfig()
	a := Analytical{Cfg: cfg}
	l := Layer{Kind: KindGEMM, M: 8, K: 8, N: 8}
	if a.LayerCycles(l) > 64 {
		t.Fatalf("analytic estimate unexpectedly high: %d", a.LayerCycles(l))
	}
}

func TestMNPUSimRunsAndUsesFiles(t *testing.T) {
	dir := t.TempDir()
	m := MNPUSim{Cfg: npu.SmallConfig(), TraceDir: dir}
	cycles, err := m.Run([]Layer{{Kind: KindGEMM, M: 32, K: 32, N: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no cycles")
	}
	// Larger layer => more cycles.
	cycles2, err := m.Run([]Layer{{Kind: KindGEMM, M: 64, K: 64, N: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if cycles2 <= cycles {
		t.Fatalf("bigger GEMM must cost more: %d vs %d", cycles2, cycles)
	}
}

// TestMNPUSimCyclesMatchRun: the in-memory count Fig. 5 uses reports the
// cycles of the file-staged run Fig. 6 times, ragged tiles included.
func TestMNPUSimCyclesMatchRun(t *testing.T) {
	cs := tensor.ConvShape{N: 1, C: 3, H: 9, W: 9, K: 5, KH: 3, KW: 3, Stride: 2, Pad: 1}
	gm, gk, gn := cs.GEMMDims()
	layers := []Layer{
		{Kind: KindGEMM, M: 32, K: 32, N: 32},
		{Kind: KindGEMM, M: 45, K: 7, N: 130},
		{Kind: KindConv, M: gm, K: gk, N: gn, Conv: cs},
	}
	for _, cfg := range []npu.Config{npu.SmallConfig(), npu.TPUv3Config()} {
		m := MNPUSim{Cfg: cfg, TraceDir: t.TempDir()}
		run, err := m.Run(layers)
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := m.Cycles(layers)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != run {
			t.Fatalf("Cycles = %d, Run = %d", cycles, run)
		}
	}
	if _, err := (MNPUSim{Cfg: npu.SmallConfig()}).Cycles([]Layer{{Kind: KindConv, Conv: tensor.ConvShape{N: 2}}}); err == nil {
		t.Fatal("Cycles must reject batch > 1 like Run")
	}
}

func TestMNPUSimRejectsBatch(t *testing.T) {
	m := MNPUSim{Cfg: npu.SmallConfig(), TraceDir: t.TempDir()}
	cs := tensor.ConvShape{N: 4, C: 3, H: 8, W: 8, K: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	gm, gk, gn := cs.GEMMDims()
	_, err := m.Run([]Layer{{Kind: KindConv, M: gm, K: gk, N: gn, Conv: cs}})
	if err == nil {
		t.Fatal("batch > 1 must be rejected")
	}
}

func TestMNPUSimSlowerThanAnalyticalWallClock(t *testing.T) {
	layers := []Layer{{Kind: KindGEMM, M: 128, K: 128, N: 128}}
	start := time.Now()
	Analytical{Cfg: npu.SmallConfig()}.Run(layers)
	tAna := time.Since(start)

	m := MNPUSim{Cfg: npu.SmallConfig(), TraceDir: t.TempDir()}
	start = time.Now()
	if _, err := m.Run(layers); err != nil {
		t.Fatal(err)
	}
	tM := time.Since(start)
	if tM <= tAna {
		t.Fatalf("file-staged simulation should be slower: %v vs %v", tM, tAna)
	}
}

func TestAccelSimGEMM(t *testing.T) {
	cfg := NPUEquivalentGPU(npu.SmallConfig())
	a := &AccelSim{Cfg: cfg}
	cycles, err := a.Run([]Layer{{Kind: KindGEMM, M: 64, K: 64, N: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no cycles")
	}
	// Instruction count: blocks(4x4=16) x 8 warps x (K*3 + (K/16)*2).
	wantInstrs := int64(16 * 8 * (64*3 + 4*2))
	if a.WarpInstrs != wantInstrs {
		t.Fatalf("warp instrs = %d, want %d", a.WarpInstrs, wantInstrs)
	}
}

func TestAccelSimScalesWithProblem(t *testing.T) {
	cfg := NPUEquivalentGPU(npu.SmallConfig())
	run := func(n int) int64 {
		a := &AccelSim{Cfg: cfg}
		c, err := a.Run([]Layer{{Kind: KindGEMM, M: n, K: n, N: n}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	small, large := run(32), run(128)
	if large <= small*8 {
		t.Fatalf("O(n^3) scaling expected: %d vs %d", small, large)
	}
}

func TestNPUEquivalentGPUFLOPSMatch(t *testing.T) {
	npuCfg := npu.TPUv3Config()
	g := NPUEquivalentGPU(npuCfg)
	gpuMACs := int64(g.SMs) * int64(g.IssuePerCycle) * 32
	npuMACs := npuCfg.Core.MACsPerCycle()
	ratio := float64(gpuMACs) / float64(npuMACs)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("GPU FLOPS not matched to NPU: ratio %.2f", ratio)
	}
}

func TestScaleSimBetweenRooflineAndZero(t *testing.T) {
	cfg := npu.TPUv3Config()
	l := Layer{Kind: KindGEMM, M: 512, K: 512, N: 512}
	roof := Analytical{Cfg: cfg}.LayerCycles(l)
	ss := ScaleSim{Cfg: cfg}.LayerCycles(l)
	// SA fill/drain makes the systolic-aware estimate strictly higher than
	// the roofline on square GEMMs.
	if ss <= roof {
		t.Fatalf("ScaleSim (%d) should exceed the roofline (%d)", ss, roof)
	}
	// But it must stay within a small factor (it is still analytical).
	if ss > roof*10 {
		t.Fatalf("ScaleSim (%d) implausibly high vs roofline (%d)", ss, roof)
	}
}

func TestScaleSimScalesWithTiles(t *testing.T) {
	cfg := npu.TPUv3Config()
	small := ScaleSim{Cfg: cfg}.LayerCycles(Layer{Kind: KindGEMM, M: 128, K: 128, N: 128})
	big := ScaleSim{Cfg: cfg}.LayerCycles(Layer{Kind: KindGEMM, M: 1024, K: 1024, N: 1024})
	if big < small*64 {
		t.Fatalf("8x dims should cost >= 64x tiles-worth: %d vs %d", big, small)
	}
}
