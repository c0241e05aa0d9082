package timingsim

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/npu"
)

// meterCase is one kernel measurement: a program on a core config, with an
// optional setup that seeds the core before it runs.
type meterCase struct {
	name    string
	cfg     npu.CoreConfig
	prog    *isa.Program
	setup   func(*funcsim.Core)
	wantErr bool
}

// dmaKernel moves tiles DRAM -> scratchpad -> DRAM, each tile to a
// scratchpad offset higher than the last, so the recycled core has a wide
// dirty region to clear.
func dmaKernel(tiles int) *isa.Program {
	b := isa.NewBuilder("dma")
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 8, Imm: 1})
	b.Emit(isa.Instr{Op: isa.OpSLLI, Rd: 8, Rs1: 8, Imm: 47}) // scratchpad base
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 1, Imm: 16})
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 2, Imm: 64})
	b.Emit(isa.Instr{Op: isa.OpCONFIG, Rs1: 1, Rs2: 2, Funct: isa.ConfigShape})
	for i := 0; i < tiles; i++ {
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 6, Imm: int32(i * 4096)})
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 9, Imm: int32(i * 8192)})
		b.Emit(isa.Instr{Op: isa.OpADD, Rd: 7, Rs1: 8, Rs2: 9})
		b.Emit(isa.Instr{Op: isa.OpMVIN, Rs1: 6, Rs2: 7})
		b.Emit(isa.Instr{Op: isa.OpWAITDMA})
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: 6, Rs1: 6, Imm: 1 << 20})
		b.Emit(isa.Instr{Op: isa.OpMVOUT, Rs1: 6, Rs2: 7})
	}
	b.Emit(isa.Instr{Op: isa.OpWAITDMA})
	b.Emit(isa.Instr{Op: isa.OpHALT})
	return b.Build()
}

func meterCases(t *testing.T) []meterCase {
	t.Helper()
	big := npu.TPUv3Config().Core
	small := npu.SmallConfig().Core
	bad, err := isa.Assemble("bad", "vpop v1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	return []meterCase{
		{name: "gemm", cfg: big, prog: codegen.GEMM(codegen.GEMMSpec{
			M: 64, K: 128, N: 128, WOff: 1 << 20, OutOff: 2 << 20})},
		{name: "conv", cfg: big, prog: codegen.GEMM(codegen.GEMMSpec{
			M: 49, K: 64, N: 128, Accumulate: true,
			Epi:  codegen.Epilogue{ScaleShift: true, ReLU: true},
			WOff: 1 << 20, OutOff: 2 << 20, GammaOff: 3 << 20, BetaOff: 3<<20 + 512,
			InRowStride: 512})},
		{name: "layernorm", cfg: big, prog: codegen.LayerNorm(codegen.LayerNormSpec{
			Rows: 16, Cols: 768, VLEN: big.VLEN(), Eps: 1e-5,
			GOff: 1 << 20, BOff: 1<<20 + 4096, OutOff: 2 << 20})},
		{name: "dma", cfg: big, prog: dmaKernel(32), setup: func(c *funcsim.Core) {
			for i := 0; i < 32*1024; i++ {
				c.Mem.DRAM.StoreF(uint64(4*i), float32(i))
			}
		}},
		{name: "dma-small", cfg: small, prog: dmaKernel(4)},
		{name: "vpop-empty", cfg: big, prog: bad, wantErr: true},
	}
}

func measureFresh(t *testing.T, cases []meterCase) []Result {
	t.Helper()
	want := make([]Result, len(cases))
	for i, c := range cases {
		r, err := MeasureKernel(c.cfg, c.prog, c.setup)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: MeasureKernel err = %v, want error %v", c.name, err, c.wantErr)
		}
		want[i] = r
	}
	return want
}

func checkMeter(t *testing.T, m *Meter, c meterCase, want Result) {
	t.Helper()
	got, err := m.Measure(c.cfg, c.prog, c.setup)
	if (err != nil) != c.wantErr {
		t.Errorf("%s: Meter err = %v, want error %v", c.name, err, c.wantErr)
	}
	if got != want {
		t.Errorf("%s: Meter measured %+v, fresh core %+v", c.name, got, want)
	}
}

// A Meter recycles cores across kernels, configs and failed runs; every
// Result must still be the one a fresh MeasureKernel returns, whatever ran
// on the core before.
func TestMeterMatchesMeasureKernel(t *testing.T) {
	cases := meterCases(t)
	want := measureFresh(t, cases)
	m := &Meter{}
	for i := range cases {
		checkMeter(t, m, cases[i], want[i])
	}
	for i := len(cases) - 1; i >= 0; i-- {
		checkMeter(t, m, cases[i], want[i])
	}
}

func TestMeterConcurrent(t *testing.T) {
	cases := meterCases(t)
	want := measureFresh(t, cases)
	m := &Meter{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				for j := range cases {
					i := (j + g) % len(cases) // each goroutine starts elsewhere
					checkMeter(t, m, cases[i], want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// A warmed Meter measures a kernel without allocating a scratchpad: a
// regression to one 16 MiB scratchpad per kernel fails here.
func TestMeterReusesScratchpad(t *testing.T) {
	c := meterCases(t)[0]
	m := &Meter{}
	if _, err := m.Measure(c.cfg, c.prog, nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := m.Measure(c.cfg, c.prog, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("warmed Meter.Measure allocated %d bytes, want < 1 MiB (scratchpad is %d)", d, c.cfg.SpadBytes)
	}
}
