// Benchmark harness: one benchmark per paper table/figure (run with
// `go test -bench=. -benchmem -benchtime=1x`), plus component micro-
// benchmarks. Figure benchmarks call the same drivers as cmd/experiments
// in quick mode; full-scale runs are the experiments command's job.
package main

import (
	"fmt"
	"testing"

	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/funcsim"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/obs"
	servicecache "repro/internal/service/cache"
	"repro/internal/service/modelzoo"
	"repro/internal/sparse"
	"repro/internal/sparsecore"
	"repro/internal/tensor"
	"repro/internal/timingsim"
	"repro/internal/tog"
	"repro/internal/togsim"
)

// --- TLS engine micro-benchmarks ------------------------------------------
//
// One benchmark per engine mode and workload shape. The idle-heavy cases
// (sparse arrivals, million-cycle compute nodes) are where the
// discrete-event kernel's cycle-skipping pays off: the strict variants
// tick through every idle cycle, the event variants jump them.

// tlsIdleHeavyJobs builds a workload dominated by idle stretches: long
// compute nodes separated by small DMAs, plus jobs arriving far apart.
func tlsIdleHeavyJobs(cfg npu.Config) []*togsim.Job {
	mk := func(name string, computeCycles int64, iters int64) *tog.TOG {
		b := tog.NewBuilder(name, "in", "out")
		desc := npu.DMADesc{Rows: 2, Cols: 128}
		b.Loop("i", 0, iters, 1)
		b.Load("in", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 4096}}}, 0, 0)
		b.Wait(0)
		b.Compute(tog.UnitSA, computeCycles)
		b.Store("out", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 4096}}}, 1, 0)
		b.EndLoop()
		g, err := b.Build()
		if err != nil {
			panic(err)
		}
		return g
	}
	var jobs []*togsim.Job
	for c := 0; c < cfg.Cores; c++ {
		jobs = append(jobs,
			&togsim.Job{
				Name: "long", TOGs: []*tog.TOG{mk("long", 1_000_000, 8)},
				Bases: []map[string]uint64{{"in": uint64(c) << 30, "out": uint64(c)<<30 + (1 << 24)}},
				Core:  c, Src: c,
			},
			&togsim.Job{
				Name: "late", TOGs: []*tog.TOG{mk("late", 500_000, 4)},
				Bases: []map[string]uint64{{"in": uint64(c)<<30 + (1 << 25), "out": uint64(c)<<30 + (1 << 26)}},
				Core:  c, Src: cfg.Cores + c,
				Arrival: 5_000_000, // sparse load-generator arrival
			})
	}
	return jobs
}

// tlsBusyJobs is the contrasting DMA-bound shape: little idle time, so
// cycle-skipping should roughly match (not beat) strict ticking.
func tlsBusyJobs(cfg npu.Config) []*togsim.Job {
	b := tog.NewBuilder("busy", "in", "out")
	desc := npu.DMADesc{Rows: 8, Cols: 256}
	b.Loop("i", 0, 64, 1)
	b.Load("in", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 2048}}}, 0, 0)
	b.Wait(0)
	b.Compute(tog.UnitSA, 100)
	b.Store("out", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 2048}}}, 1, 0)
	b.EndLoop()
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return []*togsim.Job{{
		Name: "busy", TOGs: []*tog.TOG{g},
		Bases: []map[string]uint64{{"in": 0, "out": 1 << 26}},
	}}
}

func benchTLSEngine(b *testing.B, strict bool, mkJobs func(npu.Config) []*togsim.Job) {
	benchTLSEngineProbe(b, strict, mkJobs, nil)
}

func benchTLSEngineProbe(b *testing.B, strict bool, mkJobs func(npu.Config) []*togsim.Job, mkProbe func() obs.Probe) {
	b.Helper()
	cfg := benchCfg()
	cfg.Cores = 2
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := togsim.NewStandard(cfg, togsim.SimpleNet, dram.FRFCFS)
		s.Engine.StrictTick = strict
		if mkProbe != nil {
			s.AttachProbe(mkProbe())
		}
		res, err := s.Engine.Run(mkJobs(cfg))
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkTLSEngineIdleHeavyEvent(b *testing.B)  { benchTLSEngine(b, false, tlsIdleHeavyJobs) }
func BenchmarkTLSEngineIdleHeavyStrict(b *testing.B) { benchTLSEngine(b, true, tlsIdleHeavyJobs) }
func BenchmarkTLSEngineBusyEvent(b *testing.B)       { benchTLSEngine(b, false, tlsBusyJobs) }
func BenchmarkTLSEngineBusyStrict(b *testing.B)      { benchTLSEngine(b, true, tlsBusyJobs) }

// The nil-probe benchmark is byte-for-byte the engine configuration the
// plain benchmarks above run (probes default to nil) — compare allocs/op
// against BenchmarkTLSEngineTraced to see the cost of instrumentation, and
// against historical BusyEvent numbers to confirm a nil probe added none.
func BenchmarkTLSEngineNilProbe(b *testing.B) {
	benchTLSEngineProbe(b, false, tlsBusyJobs, func() obs.Probe { return nil })
}

func BenchmarkTLSEngineTraced(b *testing.B) {
	benchTLSEngineProbe(b, false, tlsBusyJobs, func() obs.Probe { return obs.NewTraceWriter() })
}

func benchCfg() npu.Config { return npu.TPUv3Config() }

// --- Figure/table reproductions ------------------------------------------

func BenchmarkFig5Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig5(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Speed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7a(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7bTenancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7b(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8aFineGrainedDMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8a(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8bConvLayoutBatch1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8b(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8cSmallChannelConv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8c(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Chiplet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Training(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.SparseValidation(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks -------------------------------------------

func BenchmarkCompileGEMM1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := compiler.New(benchCfg(), compiler.DefaultOptions())
		if _, err := c.Compile(nn.GEMM(1024)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDRAMStreaming(b *testing.B) {
	cfg := benchCfg().Mem
	for i := 0; i < b.N; i++ {
		m := dram.New(cfg, dram.FRFCFS)
		for a := 0; a < 1<<20; a += cfg.BurstBytes {
			r := &dram.Request{Addr: uint64(a)}
			for !m.Submit(r) {
				m.Tick()
				m.Completed()
			}
		}
		m.Drain()
	}
	b.SetBytes(1 << 20)
}

func BenchmarkNoCCrossbar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x := noc.NewCrossbar(32, 3, 256)
		for j := 0; j < 4096; j++ {
			m := &noc.Message{Src: j % 4, Dst: 4 + j%8, Bytes: 64}
			for !x.Submit(m) {
				x.Tick()
				x.Completed()
			}
		}
		noc.Drain(x)
	}
}

func BenchmarkFuncsimKernel(b *testing.B) {
	// One 128x128x128 GEMM tile kernel, instruction by instruction: the
	// unit of work ILS pays per dynamic tile and TLS pays once per shape.
	cfg := benchCfg().Core
	prog := codegen.GEMM(codegen.GEMMSpec{M: 128, K: 128, N: 128, WOff: 1 << 16, OutOff: 1 << 18})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := funcsim.NewCore(cfg, npu.NewPagedMem())
		if _, err := c.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimingPipelineKernel(b *testing.B) {
	cfg := benchCfg().Core
	prog := codegen.GEMM(codegen.GEMMSpec{M: 128, K: 128, N: 128, WOff: 1 << 16, OutOff: 1 << 18})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timingsim.MeasureKernel(cfg, prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices DESIGN.md calls out) -------------

// ablationScheduler reproduces the §5.1 contention mechanism under a given
// DRAM scheduler: a bandwidth-hungry streaming GEMM (row-hit friendly) is
// co-located with a sparse core whose scattered fibre fetches have poor
// row-buffer locality. The policy visibly shifts the victim's completion
// time (reported as sparse-cycles): FR-FCFS prioritizes the dense stream's
// row hits, while plain FCFS row-thrashes the shared banks and delays
// everyone — including the sparse job — even more.
func ablationScheduler(b *testing.B, policy dram.SchedulerKind) {
	b.Helper()
	cfg := benchCfg()
	cfg.Cores = 2
	c := compiler.New(cfg, compiler.DefaultOptions())
	comp, err := c.Compile(exp.GEMMRectGraph(128, 2048, 2048))
	if err != nil {
		b.Fatal(err)
	}
	dense := comp.Job("dense", 0, 0)
	r := tensor.NewRNG(1)
	sa := sparse.Random(r, 256, 256, 0.05)
	sb := sparse.Random(r, 256, 256, 0.05)
	spCfg := sparsecore.DefaultConfig()
	spCfg.ScatterStride = 8224
	tiled, err := sparsecore.BuildTiledJob("spmspm", sa, sb, 128, spCfg, 1<<32)
	if err != nil {
		b.Fatal(err)
	}
	// Repeat the sparse kernel so its later iterations run under the dense
	// job's steady-state traffic.
	var spTOGs []*tog.TOG
	var spBases []map[string]uint64
	for i := 0; i < 6; i++ {
		spTOGs = append(spTOGs, tiled.TOG)
		spBases = append(spBases, tiled.Bases)
	}
	var sparseEnd int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := &togsim.Job{Name: "sparse", TOGs: spTOGs, Bases: spBases, Core: 1, Src: 1}
		s := togsim.NewStandard(cfg, togsim.SimpleNet, policy)
		res, err := s.Engine.Run([]*togsim.Job{dense, sp})
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range res.Jobs {
			if j.Name == "sparse" {
				sparseEnd = j.End
			}
		}
	}
	b.ReportMetric(float64(sparseEnd), "sparse-cycles")
}

// Row-buffer-aware scheduling: FR-FCFS vs plain FCFS under dense+sparse
// co-location.
func BenchmarkAblationSchedulerFRFCFS(b *testing.B) { ablationScheduler(b, dram.FRFCFS) }
func BenchmarkAblationSchedulerFCFS(b *testing.B)   { ablationScheduler(b, dram.FCFS) }

// ablationGEMMCycles runs one streaming GEMM through TLS and reports its
// simulated cycles.
func ablationGEMMCycles(b *testing.B, cfg npu.Config) {
	b.Helper()
	c := compiler.New(cfg, compiler.DefaultOptions())
	comp, err := c.Compile(nn.GEMM(512))
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := togsim.NewStandard(cfg, togsim.SimpleNet, dram.FRFCFS)
		res, err := s.Engine.Run([]*togsim.Job{comp.Job("gemm", 0, 0)})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// DRAM refresh: the all-bank tREFI/tRFC pauses cost a few percent.
func BenchmarkAblationRefreshOn(b *testing.B) { ablationGEMMCycles(b, benchCfg()) }
func BenchmarkAblationRefreshOff(b *testing.B) {
	cfg := benchCfg()
	cfg.Mem.TREFI = 0
	ablationGEMMCycles(b, cfg)
}

// Deserializer depth: the push-all-then-pop-all GEMM kernel template relies
// on a deep SA accumulator FIFO; shallow FIFOs backpressure the pipeline.
func ablationDesFIFO(b *testing.B, rows int) {
	b.Helper()
	cfg := benchCfg().Core
	cfg.DesFIFORows = rows
	prog := codegen.GEMM(codegen.GEMMSpec{M: 128, K: 128, N: 128, WOff: 1 << 16, OutOff: 1 << 18})
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := timingsim.MeasureKernel(cfg, prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkAblationDesFIFO256(b *testing.B) { ablationDesFIFO(b, 256) }
func BenchmarkAblationDesFIFO8(b *testing.B)   { ablationDesFIFO(b, 8) }

// --- Compiler pipeline benchmarks -----------------------------------------
//
// Cold vs parallel vs warm-disk compilation of resnet18 (batch 1). Cold
// with Workers=1 is the old serial compiler's cost; Parallel fans codegen
// and measurement across GOMAXPROCS workers; WarmDisk compiles against a
// pre-warmed persistent latency table and must invoke the measurer zero
// times (asserted, not just benchmarked).

func benchCompileGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := modelzoo.BuildGraph(modelzoo.Spec{Model: "resnet18", Batch: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkCompileCold(b *testing.B) {
	g := benchCompileGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := compiler.New(benchCfg(), compiler.DefaultOptions())
		c.Workers = 1
		if _, err := c.Compile(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileParallel(b *testing.B) {
	g := benchCompileGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := compiler.New(benchCfg(), compiler.DefaultOptions())
		if _, err := c.Compile(g); err != nil {
			b.Fatal(err)
		}
	}
}

// zooColdSpecs are the eight models the benchmark's compile.zoo-cold
// workload compiles (bench/workloads.go, full profile), so that workload's
// compile path can be profiled from the root module (make profile
// MODEL=zoo).
var zooColdSpecs = []modelzoo.Spec{
	{Model: "resnet18", Batch: 1},
	{Model: "resnet50", Batch: 1},
	{Model: "bert-base", Batch: 1, Seq: 64},
	{Model: "bert-base", Batch: 1, Seq: 128},
	{Model: "bert-large", Batch: 1, Seq: 128},
	{Model: "decoder-small", Batch: 4, Ctx: 256, Prefill: true},
	{Model: "decoder-base", Batch: 1, Ctx: 128},
	{Model: "mlp-train", Batch: 8},
}

// BenchmarkCompileZoo is one op of compile.zoo-cold without the graph
// builds: every zoo spec compiled cold on TPUv3, each on a fresh compiler
// with the default worker count.
func BenchmarkCompileZoo(b *testing.B) {
	gs := make([]*graph.Graph, len(zooColdSpecs))
	for i, spec := range zooColdSpecs {
		g, err := modelzoo.BuildGraph(spec)
		if err != nil {
			b.Fatal(err)
		}
		gs[i] = g
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			if _, err := compiler.New(benchCfg(), compiler.DefaultOptions()).Compile(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCompileWarmDisk(b *testing.B) {
	g := benchCompileGraph(b)
	dir := b.TempDir()
	warm := core.NewSimulator(benchCfg(), compiler.DefaultOptions())
	disk, err := servicecache.NewDisk(dir)
	if err != nil {
		b.Fatal(err)
	}
	warm.Compiler.Cache().SetStore(disk)
	if _, err := warm.Compile(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(benchCfg(), compiler.DefaultOptions())
		d, err := servicecache.NewDisk(dir)
		if err != nil {
			b.Fatal(err)
		}
		sim.Compiler.Cache().SetStore(d)
		if _, err := sim.Compile(g); err != nil {
			b.Fatal(err)
		}
		if n := sim.Compiler.MeasureCount(); n != 0 {
			b.Fatalf("warm-disk compile measured %d kernels", n)
		}
	}
}

// --- Engine scaling benchmarks --------------------------------------------
//
// One multi-core workload per model: the compiled model replicated on every
// simulated core, all sharing one fabric. `make profile` CPU-profiles these.

var engineBenchCompiled = map[string]*compiler.Compiled{}

func engineBenchComp(b *testing.B, model string) *compiler.Compiled {
	b.Helper()
	if c, ok := engineBenchCompiled[model]; ok {
		return c
	}
	g, err := modelzoo.BuildGraph(modelzoo.Spec{Model: model, Batch: 1, Seq: 128})
	if err != nil {
		b.Fatal(err)
	}
	comp, err := compiler.New(benchCfg(), compiler.DefaultOptions()).Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	engineBenchCompiled[model] = comp
	return comp
}

func benchEngineScale(b *testing.B, model string, cores int, net togsim.NetKind) {
	b.Helper()
	comp := engineBenchComp(b, model)
	cfg := benchCfg()
	cfg.Cores = cores
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]*togsim.Job, cores)
		for ci := 0; ci < cores; ci++ {
			jobs[ci] = comp.Job(fmt.Sprintf("%s-c%d", model, ci), ci, ci)
		}
		s := togsim.NewStandard(cfg, net, dram.FRFCFS)
		res, err := s.Engine.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkEngineResnet18C1Serial(b *testing.B) {
	benchEngineScale(b, "resnet18", 1, togsim.SimpleNet)
}
func BenchmarkEngineResnet18C4Serial(b *testing.B) {
	benchEngineScale(b, "resnet18", 4, togsim.SimpleNet)
}
func BenchmarkEngineResnet18C8Serial(b *testing.B) {
	benchEngineScale(b, "resnet18", 8, togsim.SimpleNet)
}
func BenchmarkEngineBertBaseC1Serial(b *testing.B) {
	benchEngineScale(b, "bert-base", 1, togsim.SimpleNet)
}
func BenchmarkEngineBertBaseC4Serial(b *testing.B) {
	benchEngineScale(b, "bert-base", 4, togsim.SimpleNet)
}
func BenchmarkEngineBertBaseC8Serial(b *testing.B) {
	benchEngineScale(b, "bert-base", 8, togsim.SimpleNet)
}

// BenchmarkEngineResnet18C1CN is resnet18 on one core over the
// cycle-accurate crossbar (CN, Fig. 5's reference) instead of SN.
func BenchmarkEngineResnet18C1CN(b *testing.B) { benchEngineScale(b, "resnet18", 1, togsim.CycleNet) }

// tlsResidentJobs is the scratchpad-resident multi-tenant shape: each core
// runs a long compute-dense kernel sequence touching DRAM only at tile
// boundaries, so cores couple through the fabric rarely and most engine
// rounds have one core due and an idle fabric.
func tlsResidentJobs(cfg npu.Config) []*togsim.Job {
	mk := func(name string, iters int64) *tog.TOG {
		b := tog.NewBuilder(name, "in", "out")
		desc := npu.DMADesc{Rows: 4, Cols: 128}
		b.Loop("i", 0, iters, 1)
		b.Load("in", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 4096}}}, 0, 0)
		b.Wait(0)
		// One resident tile: many short dependent compute nodes (the
		// per-node event cost dominates, not idle cycles).
		for k := 0; k < 512; k++ {
			b.Compute(tog.UnitSA, 120)
			b.Compute(tog.UnitVector, 40)
		}
		b.Store("out", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 4096}}}, 1, 0)
		b.EndLoop()
		g, err := b.Build()
		if err != nil {
			panic(err)
		}
		return g
	}
	var jobs []*togsim.Job
	for c := 0; c < cfg.Cores; c++ {
		jobs = append(jobs, &togsim.Job{
			Name: "resident", TOGs: []*tog.TOG{mk("resident", 32)},
			Bases: []map[string]uint64{{"in": uint64(c) << 30, "out": uint64(c)<<30 + (1 << 26)}},
			Core:  c, Src: c,
		})
	}
	return jobs
}

func BenchmarkEngineResident8CSerial(b *testing.B) {
	cfg := benchCfg()
	cfg.Cores = 8
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := togsim.NewStandard(cfg, togsim.SimpleNet, dram.FRFCFS)
		res, err := s.Engine.Run(tlsResidentJobs(cfg))
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}
