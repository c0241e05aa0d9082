package timingsim

import (
	"runtime"
	"testing"

	"repro/internal/codegen"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/systolic"
	"repro/internal/tensor"
)

func measureSrc(t *testing.T, src string, setup func(*funcsim.Core)) Result {
	t.Helper()
	p, err := isa.Assemble("k", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := MeasureKernel(npu.SmallConfig().Core, p, setup)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIndependentScalarOpsPipelineAtOnePerCycle(t *testing.T) {
	r := measureSrc(t, `
		addi x1, x0, 1
		addi x2, x0, 2
		addi x3, x0, 3
		addi x4, x0, 4
		halt
	`, nil)
	// 5 instructions, 1 issue per cycle, 1-cycle latency: ~5-6 cycles.
	if r.Cycles < 5 || r.Cycles > 7 {
		t.Fatalf("cycles = %d, want ~5", r.Cycles)
	}
	if r.StallRAW != 0 {
		t.Fatalf("no RAW stalls expected, got %d", r.StallRAW)
	}
}

func TestRAWDependencyStalls(t *testing.T) {
	// A chain of dependent vector adds (latency 2) must run slower than the
	// same number of independent ones (throughput 1/cycle).
	cfg := npu.SmallConfig().Core
	mk := func(dependent bool) Result {
		b := isa.NewBuilder("chain")
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 1, Imm: 8})
		b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: 2, Rs1: 1})
		for i := 0; i < 32; i++ {
			if dependent {
				b.Emit(isa.Instr{Op: isa.OpVADD, Rd: 3, Rs1: 3, Rs2: 3})
			} else {
				b.Emit(isa.Instr{Op: isa.OpVADD, Rd: uint8(3 + i%8), Rs1: 20, Rs2: 21})
			}
		}
		b.Emit(isa.Instr{Op: isa.OpHALT})
		r, err := MeasureKernel(cfg, b.Build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	dep, indep := mk(true), mk(false)
	if dep.Cycles <= indep.Cycles {
		t.Fatalf("dependent chain (%d) must be slower than independent (%d)", dep.Cycles, indep.Cycles)
	}
	if dep.StallRAW == 0 {
		t.Fatal("expected RAW stall cycles")
	}
}

// TestVectorStoreWaitsForItsSource: a vector store stalls on the register it
// stores, which vse32 names in Rs2 and vsse32 in Funct.
func TestVectorStoreWaitsForItsSource(t *testing.T) {
	cfg := npu.SmallConfig().Core
	for _, tc := range []struct {
		name  string
		store func(src uint8) isa.Instr
	}{
		{"vse32", func(src uint8) isa.Instr { return isa.Instr{Op: isa.OpVSE32, Rs2: src} }},
		{"vsse32", func(src uint8) isa.Instr { return isa.Instr{Op: isa.OpVSSE32, Rs2: 4, Funct: src} }},
	} {
		stall := func(src uint8) int64 {
			b := isa.NewBuilder(tc.name)
			b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 1, Imm: 8})
			b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: 2, Rs1: 1})
			b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 4, Imm: 4})
			b.Emit(isa.Instr{Op: isa.OpVADD, Rd: 5, Rs1: 20, Rs2: 21})
			b.Emit(tc.store(src))
			b.Emit(isa.Instr{Op: isa.OpHALT})
			r, err := MeasureKernel(cfg, b.Build(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return r.StallRAW
		}
		if dep, indep := stall(5), stall(6); dep <= indep {
			t.Errorf("%s of the register just written stalls %d cycles, of an idle one %d", tc.name, dep, indep)
		}
	}
}

func TestStructuralHazardOnFPU(t *testing.T) {
	// Two back-to-back unpipelined fdivs contend for the FPU.
	r := measureSrc(t, `
		fli f1, 8.0
		fli f2, 2.0
		fdiv f3, f1, f2
		fdiv f4, f2, f1
		halt
	`, nil)
	if r.StallUnit == 0 {
		t.Fatal("expected structural-hazard stalls on the FPU")
	}
}

func TestTakenBranchPenalty(t *testing.T) {
	// A loop with taken branches pays the redirect penalty each iteration:
	// compare the same trace through pipelines with and without a penalty.
	src := `
		addi x1, x0, 0
		addi x2, x0, 8
	head:
		addi x1, x1, 1
		blt x1, x2, head
		halt
	`
	p, err := isa.Assemble("loop", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(penalty int64) int64 {
		core := funcsim.NewCore(npu.SmallConfig().Core, npu.NewPagedMem())
		pipe := NewPipeline(npu.SmallConfig().Core)
		pipe.BranchPenalty = penalty
		core.Trace = pipe.Consume
		if _, err := core.Run(p); err != nil {
			t.Fatal(err)
		}
		return pipe.Cycles()
	}
	with, without := run(3), run(0)
	// 7 taken back-branches; part of the redirect penalty overlaps the RAW
	// stalls the unpenalized run already pays, so require most of it.
	if with < without+7*2 {
		t.Fatalf("penalized loop (%d) should cost >= %d (unpenalized %d + 14)", with, without+14, without)
	}
}

func TestVectorOccupancyScalesWithVL(t *testing.T) {
	cfg := npu.SmallConfig().Core // VLEN = 16
	mk := func(vl int) int64 {
		b := isa.NewBuilder("v")
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 1, Imm: int32(vl)})
		b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: 2, Rs1: 1})
		// 8 dependent vector adds.
		for i := 0; i < 8; i++ {
			b.Emit(isa.Instr{Op: isa.OpVADD, Rd: 3, Rs1: 3, Rs2: 4})
		}
		b.Emit(isa.Instr{Op: isa.OpHALT})
		r, err := MeasureKernel(cfg, b.Build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	// VL=16 fits in one beat; a hypothetical VL=16 vs VL=16 is equal, but
	// the small config VLEN is 16 so both fit; instead compare VL=4 vs VL=16
	// with throughput 16/cycle: equal occupancy 1. Check monotonicity only.
	if mk(16) < mk(4) {
		t.Fatal("larger VL must not be faster")
	}
}

// buildGEMMKernel emits a kernel for an m x k x n GEMM tile. When pipelined
// is true the kernel software-pipelines pushes and pops (keeping up to
// `depth` rows in flight) instead of popping immediately after each push.
func buildGEMMKernel(m, k, n, depth int, pipelined bool) *isa.Program {
	b := isa.NewBuilder("gemm")
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 1, Imm: int32(n)})
	b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: 2, Rs1: 1})
	for kk := 0; kk < k; kk++ {
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 3, Imm: int32(1<<16 + kk*n*4)})
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: 1, Rs1: 3})
		b.Emit(isa.Instr{Op: isa.OpWVPUSH, Rs1: 1})
	}
	push := func(row int) {
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 3, Imm: int32(row * k * 4)})
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: 2, Rs1: 3})
		b.Emit(isa.Instr{Op: isa.OpIVPUSH, Rs1: 2})
	}
	pop := func(row int) {
		b.Emit(isa.Instr{Op: isa.OpVPOP, Rd: 3})
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 4, Imm: int32(1<<20 + row*n*4)})
		b.Emit(isa.Instr{Op: isa.OpVSE32, Rs2: 3, Rs1: 4})
	}
	if !pipelined {
		for mm := 0; mm < m; mm++ {
			push(mm)
			pop(mm)
		}
	} else {
		if depth > m {
			depth = m
		}
		for mm := 0; mm < depth; mm++ {
			push(mm)
		}
		for mm := 0; mm < m-depth; mm++ {
			pop(mm)
			push(mm + depth)
		}
		for mm := m - depth; mm < m; mm++ {
			pop(mm)
		}
	}
	b.Emit(isa.Instr{Op: isa.OpHALT})
	return b.Build()
}

func TestSAGEMMKernelTiming(t *testing.T) {
	cfg := npu.SmallConfig().Core
	k, n, m := 8, 8, 64
	setup := func(c *funcsim.Core) {
		r := tensor.NewRNG(1)
		in := tensor.RandNormal(r, 0, 1, m, k)
		w := tensor.RandNormal(r, 0, 1, k, n)
		c.Mem.DRAM.StoreSpan(0, in.Data)
		c.Mem.DRAM.StoreSpan(1<<16, w.Data)
	}
	naive, err := MeasureKernel(cfg, buildGEMMKernel(m, k, n, 0, false), setup)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := MeasureKernel(cfg, buildGEMMKernel(m, k, n, cfg.DesFIFORows, true), setup)
	if err != nil {
		t.Fatal(err)
	}
	closed := systolic.GEMMTileCycles(m, k, n)
	// Software pipelining hides the SA fill/drain latency: the pipelined
	// kernel must beat the naive one and land within a small factor of the
	// SA-only closed form (the in-order core adds per-row address/load/store
	// instruction overhead).
	if piped.Cycles >= naive.Cycles {
		t.Fatalf("pipelined %d must beat naive %d", piped.Cycles, naive.Cycles)
	}
	if piped.Cycles < closed {
		t.Fatalf("pipelined cycles %d below SA closed form %d", piped.Cycles, closed)
	}
	if piped.Cycles > closed*8 {
		t.Fatalf("pipelined cycles %d unreasonably above closed form %d", piped.Cycles, closed)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
		addi x1, x0, 0
		addi x2, x0, 32
	head:
		addi x1, x1, 1
		blt x1, x2, head
		halt
	`
	a := measureSrc(t, src, nil)
	b := measureSrc(t, src, nil)
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs {
		t.Fatal("timing must be deterministic")
	}
}

func TestSFUSlowerThanVectorALU(t *testing.T) {
	cfg := npu.SmallConfig().Core
	mk := func(op isa.Instr) int64 {
		b := isa.NewBuilder("s")
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 1, Imm: 16})
		b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: 2, Rs1: 1})
		for i := 0; i < 16; i++ {
			b.Emit(op)
		}
		b.Emit(isa.Instr{Op: isa.OpHALT})
		r, err := MeasureKernel(cfg, b.Build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	sfu := mk(isa.Instr{Op: isa.OpSFU, Rd: 3, Rs1: 3, Funct: isa.SFUExp})
	vadd := mk(isa.Instr{Op: isa.OpVADD, Rd: 3, Rs1: 3, Rs2: 4})
	if sfu <= vadd {
		t.Fatalf("SFU chain (%d) must be slower than vector ALU chain (%d)", sfu, vadd)
	}
}

func TestMeasureKernelCountsDMABytes(t *testing.T) {
	r := measureSrc(t, `
		addi x1, x0, 2
		addi x2, x0, 4
		config.0 x1, x2
		mvin x0, x3
		waitdma x0
		halt
	`, func(c *funcsim.Core) {
		c.X[3] = int64(isa.SpadBase)
	})
	if r.DMABytesIn != 2*4*4 {
		t.Fatalf("DMABytesIn = %d, want 32", r.DMABytesIn)
	}
}

// A fresh measuring core allocates only the scratchpad pages its kernel
// stores to: timing a GEMM tile on a TPUv3 core (16 MiB scratchpad) must
// not cost a scratchpad's worth of memory. The measurement allocated
// 422,024 bytes in total on go1.24/amd64, the tiles' scratchpad pages
// among them; the 1 MiB bound is about 2.5x that and 1/16 of SpadBytes.
func TestMeasureKernelAllocatesTouchedScratchpad(t *testing.T) {
	cfg := npu.TPUv3Config().Core
	p := codegen.GEMM(codegen.GEMMSpec{M: 64, K: 128, N: 128, WOff: 1 << 20, OutOff: 2 << 20})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := MeasureKernel(cfg, p, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	d := after.TotalAlloc - before.TotalAlloc
	t.Logf("MeasureKernel allocated %d bytes (scratchpad %d)", d, cfg.SpadBytes)
	if d >= 1<<20 {
		t.Fatalf("MeasureKernel allocated %d bytes, want < 1 MiB (scratchpad is %d)", d, cfg.SpadBytes)
	}
}

// TestConsumeAllocatesNothing pins Pipeline.Consume at zero allocations: the
// operand lists fill buffers the pipeline owns, and the systolic timing model
// reuses its deserializer queue. The trace is a real GEMM tile kernel (SA
// pushes and pops, vector loads and stores) plus one instruction of every
// opcode, so an opcode whose operands outgrow the buffers shows here.
func TestConsumeAllocatesNothing(t *testing.T) {
	cfg := npu.SmallConfig().Core
	var trace []funcsim.TraceEvent
	core := funcsim.NewCore(cfg, npu.NewPagedMem())
	core.Trace = func(e funcsim.TraceEvent) { trace = append(trace, e) }
	prog := codegen.GEMM(codegen.GEMMSpec{M: 32, K: 8, N: 8, WOff: 1 << 12, OutOff: 1 << 13})
	if _, err := core.Run(prog); err != nil {
		t.Fatal(err)
	}
	for op := isa.OpADDI; op <= isa.OpVPOP; op++ {
		trace = append(trace, funcsim.TraceEvent{Instr: isa.Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Funct: 4}, VL: cfg.VLEN()})
	}
	pipe := NewPipeline(cfg)
	replay := func() {
		for _, e := range trace {
			pipe.Consume(e)
		}
	}
	replay() // grow the deserializer queue to its working size
	if n := testing.AllocsPerRun(20, replay); n != 0 {
		t.Fatalf("replaying %d trace events allocates %v times, want 0", len(trace), n)
	}
}
