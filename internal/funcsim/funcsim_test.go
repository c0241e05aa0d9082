package funcsim

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/tensor"
)

func newTestCore() *Core {
	return NewCore(npu.SmallConfig().Core, npu.NewPagedMem())
}

func run(t *testing.T, c *Core, src string) {
	t.Helper()
	p, err := isa.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if _, err := c.Run(p); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestScalarArithmeticAndLoop(t *testing.T) {
	c := newTestCore()
	// Sum 1..10 into x3.
	run(t, c, `
		addi x1, x0, 1    # i
		addi x2, x0, 10   # n
		addi x3, x0, 0    # acc
	head:
		add x3, x3, x1
		addi x1, x1, 1
		bge x2, x1, head
		halt
	`)
	if c.X[3] != 55 {
		t.Fatalf("sum = %d, want 55", c.X[3])
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	c := newTestCore()
	run(t, c, "addi x0, x0, 99\nhalt")
	if c.X[0] != 0 {
		t.Fatal("x0 must stay 0")
	}
}

func TestScalarMemoryAndShifts(t *testing.T) {
	c := newTestCore()
	run(t, c, `
		addi x1, x0, 7
		slli x2, x1, 3      # 56
		srli x3, x2, 1      # 28
		and  x4, x2, x3     # 56 & 28 = 24
		or   x5, x2, x3     # 60
		xor  x6, x2, x3     # 36
		lui  x7, 1          # 4096
		sw   x2, 0(x7)
		lw   x8, 0(x7)
		halt
	`)
	if c.X[2] != 56 || c.X[3] != 28 || c.X[4] != 24 || c.X[5] != 60 || c.X[6] != 36 {
		t.Fatalf("alu results wrong: %v", c.X[:9])
	}
	if c.X[8] != 56 {
		t.Fatalf("load/store round trip got %d", c.X[8])
	}
}

func TestFloatOps(t *testing.T) {
	c := newTestCore()
	run(t, c, `
		fli f1, 9.0
		fli f2, 2.0
		fadd f3, f1, f2
		fsub f4, f1, f2
		fmul f5, f1, f2
		fdiv f6, f1, f2
		fsqrt f7, f1
		fmin f8, f1, f2
		fmax f9, f1, f2
		halt
	`)
	want := []float32{0, 9, 2, 11, 7, 18, 4.5, 3, 2, 9}
	for i := 1; i < 10; i++ {
		if c.F[i] != want[i] {
			t.Fatalf("f%d = %g, want %g", i, c.F[i], want[i])
		}
	}
}

func TestFloatIntMoves(t *testing.T) {
	c := newTestCore()
	run(t, c, `
		addi x1, x0, 42
		fmv.f.x f1, x1
		fmv.x.f x2, f1
		halt
	`)
	if c.F[1] != 42 || c.X[2] != 42 {
		t.Fatalf("moves wrong: f1=%g x2=%d", c.F[1], c.X[2])
	}
}

func TestVectorOpsAndSETVL(t *testing.T) {
	c := newTestCore()
	vlen := c.Cfg.VLEN()
	// Fill DRAM with two vectors.
	a := make([]float32, vlen)
	b := make([]float32, vlen)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}
	c.Mem.DRAM.StoreSpan(0, a)
	c.Mem.DRAM.StoreSpan(uint64(4*vlen), b)
	run(t, c, `
		addi x1, x0, 8
		setvl x2, x1
		addi x3, x0, 0
		vle32 v1, (x3)
		addi x4, x0, 64    # 4*16
		vle32 v2, (x4)
		vadd v3, v1, v2
		vmul v4, v1, v2
		vredsum f1, v3
		vredmax f2, v4
		halt
	`)
	if c.VL != 8 || c.X[2] != 8 {
		t.Fatalf("VL = %d", c.VL)
	}
	// a[i]=i, b[i]=2i for i<8 => sum(3i)=3*28=84; max(2i^2)=2*49=98.
	if c.F[1] != 84 {
		t.Fatalf("vredsum = %g, want 84", c.F[1])
	}
	if c.F[2] != 98 {
		t.Fatalf("vredmax = %g, want 98", c.F[2])
	}
}

func TestVectorScalarOpsAndSFU(t *testing.T) {
	c := newTestCore()
	c.Mem.DRAM.StoreSpan(0, []float32{1, 2, 3, 4})
	run(t, c, `
		addi x1, x0, 4
		setvl x2, x1
		addi x3, x0, 0
		vle32 v1, (x3)
		fli f1, 10.0
		vadd.vf v2, v1, f1   # 11,12,13,14
		vrsub.vf v3, v1, f1  # 9,8,7,6
		vmul.vf v4, v1, f1   # 10,20,30,40
		fli f2, 0.0
		vmax.vf v5, v3, f2
		sfu.exp v6, v1
		sfu.recip v7, v1
		vbcast v8, f1
		halt
	`)
	if c.V[2][0] != 11 || c.V[3][0] != 9 || c.V[4][3] != 40 {
		t.Fatal("vector-scalar ops wrong")
	}
	if math.Abs(float64(c.V[6][1])-math.E*math.E) > 1e-4 {
		t.Fatalf("sfu.exp wrong: %g", c.V[6][1])
	}
	if c.V[7][3] != 0.25 {
		t.Fatalf("sfu.recip wrong: %g", c.V[7][3])
	}
	if c.V[8][2] != 10 {
		t.Fatal("vbcast wrong")
	}
}

func TestStridedVectorLoadStore(t *testing.T) {
	c := newTestCore()
	for i := 0; i < 8; i++ {
		c.Mem.DRAM.StoreF(uint64(i*8), float32(i)) // every other word
	}
	run(t, c, `
		addi x1, x0, 8
		setvl x2, x1
		addi x3, x0, 0
		addi x4, x0, 8     # stride bytes
		vlse32 v1, (x3), x4
		addi x5, x0, 4096
		addi x6, x0, 4
		vsse32 v1, (x5), x6
		halt
	`)
	for i := 0; i < 8; i++ {
		if c.V[1][i] != float32(i) {
			t.Fatalf("strided load wrong at %d: %g", i, c.V[1][i])
		}
		if got := c.Mem.DRAM.LoadF(4096 + uint64(4*i)); got != float32(i) {
			t.Fatalf("strided store wrong at %d: %g", i, got)
		}
	}
}

func TestDMAMvinMvout(t *testing.T) {
	c := newTestCore()
	src := []float32{1, 2, 3, 4, 5, 6}
	c.Mem.DRAM.StoreSpan(0, src)
	run(t, c, `
		addi x1, x0, 2      # rows
		addi x2, x0, 3      # cols
		config.0 x1, x2
		addi x3, x0, 12     # dram stride
		addi x4, x0, 12     # spad stride
		config.1 x3, x4
		addi x5, x0, 1024   # elem size 4 << 8
		config.2 x5, x0
		addi x6, x0, 0      # dram addr
		lui  x7, 524288     # spad base high bits: not expressible; use addi chain below
		halt
	`)
	// The scratchpad base does not fit in immediates; drive the DMA directly
	// through register state to exercise mvin/mvout.
	c.X[6] = 0
	c.X[7] = int64(isa.SpadBase)
	p, err := isa.Assemble("dma", `
		mvin x6, x7
		waitdma x0
		addi x6, x6, 4096
		mvout x6, x7
		waitdma x0
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	got := c.Mem.DRAM.ReadFloats(4096, 6)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("DMA round trip mismatch at %d: %g", i, got[i])
		}
	}
	if c.DMABytesIn != 24 || c.DMABytesOut != 24 {
		t.Fatalf("DMA byte counters: in=%d out=%d", c.DMABytesIn, c.DMABytesOut)
	}
}

func TestSystolicGEMMKernel(t *testing.T) {
	// Full GEMM through SA instructions: 4x3 @ 3x5.
	cfg := npu.SmallConfig().Core
	dram := npu.NewPagedMem()
	c := NewCore(cfg, dram)
	r := tensor.NewRNG(1)
	in := tensor.RandNormal(r, 0, 1, 4, 3)
	w := tensor.RandNormal(r, 0, 1, 3, 5)
	dram.StoreSpan(0, in.Data)
	dram.StoreSpan(1024, w.Data)

	b := isa.NewBuilder("gemm")
	// VL = 5 for weight rows and outputs.
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 1, Imm: 5})
	b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: 2, Rs1: 1})
	// Load 3 weight rows from DRAM @1024.
	for k := 0; k < 3; k++ {
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 3, Imm: int32(1024 + k*5*4)})
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: 1, Rs1: 3})
		b.Emit(isa.Instr{Op: isa.OpWVPUSH, Rs1: 1})
	}
	// Stream 4 input rows (VL=3 for loads, VL=5 for pops/stores).
	for m := 0; m < 4; m++ {
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 4, Imm: 3})
		b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: 2, Rs1: 4})
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 3, Imm: int32(m * 3 * 4)})
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: 2, Rs1: 3})
		b.Emit(isa.Instr{Op: isa.OpIVPUSH, Rs1: 2})
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 4, Imm: 5})
		b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: 2, Rs1: 4})
		b.Emit(isa.Instr{Op: isa.OpVPOP, Rd: 3})
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 3, Imm: int32(2048 + m*5*4)})
		b.Emit(isa.Instr{Op: isa.OpVSE32, Rs2: 3, Rs1: 3})
	}
	b.Emit(isa.Instr{Op: isa.OpHALT})
	if _, err := c.Run(b.Build()); err != nil {
		t.Fatal(err)
	}
	got := tensor.FromSlice(dram.ReadFloats(2048, 20), 4, 5)
	want := tensor.MatMul(in, w)
	if !tensor.AllClose(got, want, 1e-4, 1e-4) {
		t.Fatalf("SA GEMM wrong:\n got %v\nwant %v", got, want)
	}
}

func TestVPopEmptyErrors(t *testing.T) {
	c := newTestCore()
	p, _ := isa.Assemble("bad", "vpop v1\nhalt")
	if _, err := c.Run(p); err == nil {
		t.Fatal("vpop on empty deserializer must error")
	}
}

func TestInstructionLimit(t *testing.T) {
	c := newTestCore()
	c.MaxInstrs = 100
	p, _ := isa.Assemble("inf", "head:\n jal x0, head\nhalt")
	if _, err := c.Run(p); err == nil {
		t.Fatal("expected instruction-limit error")
	}
}

func TestTraceHookAndCounters(t *testing.T) {
	c := newTestCore()
	var events []TraceEvent
	c.Trace = func(e TraceEvent) { events = append(events, e) }
	run(t, c, `
		addi x1, x0, 3
		addi x2, x0, 0
	head:
		addi x2, x2, 1
		bne x2, x1, head
		halt
	`)
	if c.InstrCount != int64(len(events)) {
		t.Fatalf("InstrCount %d != events %d", c.InstrCount, len(events))
	}
	// 2 setup + 3*(addi+bne) = 8 before halt, plus halt = 9.
	if c.InstrCount != 9 {
		t.Fatalf("InstrCount = %d, want 9", c.InstrCount)
	}
	takenCount := 0
	for _, e := range events {
		if e.Taken {
			takenCount++
		}
	}
	if takenCount != 2 { // bne taken twice, not taken once
		t.Fatalf("taken branches = %d, want 2", takenCount)
	}
	if c.ClassCounts[isa.ClassScalar] != 9 {
		t.Fatalf("scalar class count = %d", c.ClassCounts[isa.ClassScalar])
	}
}

// TestVectorRegistersOnDemand pins the lazy vector register file: NewCore
// allocates none, Run allocates exactly the registers its program names, a
// register read before any write reads zeros, and a register keeps its value
// into the next program run on the same core.
func TestVectorRegistersOnDemand(t *testing.T) {
	c := newTestCore()
	for i, v := range c.V {
		if v != nil {
			t.Fatalf("NewCore allocated v%d before any Run", i)
		}
	}
	c.Mem.DRAM.StoreSpan(0, []float32{1, 2, 3, 4})
	run(t, c, `
		addi x1, x0, 4
		setvl x2, x1
		vle32 v1, (x0)
		vadd v3, v1, v2      # v2 is never written: it reads zeros
		halt
	`)
	named := map[int]bool{1: true, 2: true, 3: true}
	for i, v := range c.V {
		if named[i] != (v != nil) {
			t.Fatalf("after Run, v%d allocated = %v, want %v", i, v != nil, named[i])
		}
		if v != nil && len(v) != c.Cfg.VLEN() {
			t.Fatalf("v%d has %d elements, want VLEN %d", i, len(v), c.Cfg.VLEN())
		}
	}
	for i, want := range []float32{1, 2, 3, 4} {
		if c.V[2][i] != 0 || c.V[3][i] != want {
			t.Fatalf("element %d: v2 = %g (want 0), v3 = %g (want %g)", i, c.V[2][i], c.V[3][i], want)
		}
	}
	run(t, c, `
		vmv v5, v3
		halt
	`)
	if c.V[5] == nil || c.V[5][3] != 4 || c.V[4] != nil {
		t.Fatalf("second run: v5 = %v, v4 allocated = %v", c.V[5], c.V[4] != nil)
	}
}
