// Package funcsim is the functional NPU simulator (the paper's extended
// Spike): it executes compiled machine code for the custom ISA instruction
// by instruction, with full architectural state — scalar/float/vector
// register files, the software-managed scratchpad, the DMA engine, and the
// functional systolic array. It is used for DNN output validation, for
// training loss computation, and (via its trace hook) to drive the core
// timing simulator.
package funcsim

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/systolic"
)

// TraceEvent describes one dynamically executed instruction; the timing
// simulator replays these through its pipeline model.
type TraceEvent struct {
	PC    int
	Instr isa.Instr
	VL    int  // active vector length at execution time
	Taken bool // branch outcome
}

// Core is one functional NPU core.
type Core struct {
	Cfg npu.CoreConfig
	X   [isa.NumScalarRegs]int64
	F   [isa.NumFloatRegs]float32
	// V is the vector register file. A register is allocated (VLEN zeros)
	// by the first Run whose program names it, so a kernel that uses a few
	// registers pays for those, not for all 32; it stays nil until then.
	V   [isa.NumVectorRegs][]float32
	VL  int
	Mem npu.AddressSpace
	SA  *systolic.Array
	DMA npu.DMADesc

	// Trace, when non-nil, receives every executed instruction.
	Trace func(TraceEvent)

	// Statistics.
	InstrCount  int64
	ClassCounts [8]int64
	DMABytesIn  int64
	DMABytesOut int64

	// MaxInstrs guards against runaway programs (0 = default limit).
	MaxInstrs int64
}

// NewCore returns a functional core with fresh architectural state backed by
// the given DRAM.
func NewCore(cfg npu.CoreConfig, dram *npu.PagedMem) *Core {
	return &Core{
		Cfg: cfg,
		Mem: npu.AddressSpace{DRAM: dram, Spad: npu.NewScratchpad(cfg.SpadBytes)},
		SA:  systolic.New(cfg.SARows, cfg.SACols),
		VL:  cfg.VLEN(),
	}
}

// Run executes the program from instruction 0 until HALT. It returns the
// number of instructions executed.
func (c *Core) Run(p *isa.Program) (int64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	c.allocVectorRegs(p)
	limit := c.MaxInstrs
	if limit == 0 {
		limit = 2_000_000_000
	}
	pc := 0
	var executed int64
	for {
		if pc < 0 || pc >= len(p.Instrs) {
			return executed, fmt.Errorf("funcsim: pc %d out of range in %q", pc, p.Name)
		}
		in := p.Instrs[pc]
		next, halted, err := c.exec(pc, in)
		if err != nil {
			return executed, fmt.Errorf("funcsim: %q pc %d (%v): %w", p.Name, pc, in, err)
		}
		executed++
		c.InstrCount++
		c.ClassCounts[isa.ClassOf(in.Op)]++
		if executed > limit {
			return executed, fmt.Errorf("funcsim: instruction limit %d exceeded in %q", limit, p.Name)
		}
		if halted {
			return executed, nil
		}
		pc = next
	}
}

// allocVectorRegs allocates every vector register the validated program p
// names that the core has not allocated yet.
func (c *Core) allocVectorRegs(p *isa.Program) {
	var buf [4]isa.Reg
	for _, in := range p.Instrs {
		for _, r := range in.Writes(in.Reads(buf[:0])) {
			if r.File == isa.FileV && c.V[r.Idx] == nil {
				c.V[r.Idx] = make([]float32, c.Cfg.VLEN())
			}
		}
	}
}

// exec executes a single instruction, returning the next pc.
func (c *Core) exec(pc int, in isa.Instr) (next int, halted bool, err error) {
	next = pc + 1
	taken := false
	switch in.Op {
	// --- scalar integer ---
	case isa.OpADDI:
		c.setX(in.Rd, c.X[in.Rs1]+int64(in.Imm))
	case isa.OpADD:
		c.setX(in.Rd, c.X[in.Rs1]+c.X[in.Rs2])
	case isa.OpSUB:
		c.setX(in.Rd, c.X[in.Rs1]-c.X[in.Rs2])
	case isa.OpMUL:
		c.setX(in.Rd, c.X[in.Rs1]*c.X[in.Rs2])
	case isa.OpSLLI:
		c.setX(in.Rd, c.X[in.Rs1]<<uint(in.Imm&63))
	case isa.OpSRLI:
		c.setX(in.Rd, int64(uint64(c.X[in.Rs1])>>uint(in.Imm&63)))
	case isa.OpAND:
		c.setX(in.Rd, c.X[in.Rs1]&c.X[in.Rs2])
	case isa.OpOR:
		c.setX(in.Rd, c.X[in.Rs1]|c.X[in.Rs2])
	case isa.OpXOR:
		c.setX(in.Rd, c.X[in.Rs1]^c.X[in.Rs2])
	case isa.OpLUI:
		c.setX(in.Rd, int64(in.Imm)<<12)

	// --- control flow ---
	case isa.OpBEQ:
		if c.X[in.Rs1] == c.X[in.Rs2] {
			next, taken = pc+int(in.Imm), true
		}
	case isa.OpBNE:
		if c.X[in.Rs1] != c.X[in.Rs2] {
			next, taken = pc+int(in.Imm), true
		}
	case isa.OpBLT:
		if c.X[in.Rs1] < c.X[in.Rs2] {
			next, taken = pc+int(in.Imm), true
		}
	case isa.OpBGE:
		if c.X[in.Rs1] >= c.X[in.Rs2] {
			next, taken = pc+int(in.Imm), true
		}
	case isa.OpJAL:
		c.setX(in.Rd, int64(pc+1))
		next, taken = pc+int(in.Imm), true
	case isa.OpHALT:
		halted = true

	// --- scalar memory ---
	case isa.OpLW:
		c.setX(in.Rd, int64(int32(c.Mem.LoadW(c.addr(in.Rs1, in.Imm)))))
	case isa.OpSW:
		c.Mem.StoreW(c.addr(in.Rs1, in.Imm), uint32(c.X[in.Rs2]))
	case isa.OpFLW:
		c.F[in.Rd] = c.Mem.LoadF(c.addr(in.Rs1, in.Imm))
	case isa.OpFSW:
		c.Mem.StoreF(c.addr(in.Rs1, in.Imm), c.F[in.Rs2])

	// --- scalar float ---
	case isa.OpFADD:
		c.F[in.Rd] = c.F[in.Rs1] + c.F[in.Rs2]
	case isa.OpFSUB:
		c.F[in.Rd] = c.F[in.Rs1] - c.F[in.Rs2]
	case isa.OpFMUL:
		c.F[in.Rd] = c.F[in.Rs1] * c.F[in.Rs2]
	case isa.OpFDIV:
		c.F[in.Rd] = c.F[in.Rs1] / c.F[in.Rs2]
	case isa.OpFSQRT:
		c.F[in.Rd] = float32(math.Sqrt(float64(c.F[in.Rs1])))
	case isa.OpFMIN:
		c.F[in.Rd] = minf(c.F[in.Rs1], c.F[in.Rs2])
	case isa.OpFMAX:
		c.F[in.Rd] = maxf(c.F[in.Rs1], c.F[in.Rs2])
	case isa.OpFLI:
		c.F[in.Rd] = in.FloatImm()
	case isa.OpFMVXF:
		c.setX(in.Rd, int64(c.F[in.Rs1]))
	case isa.OpFMVFX:
		c.F[in.Rd] = float32(c.X[in.Rs1])

	// --- vector config ---
	case isa.OpSETVL:
		vl := int(c.X[in.Rs1])
		if vl < 0 {
			vl = 0
		}
		if vl > c.Cfg.VLEN() {
			vl = c.Cfg.VLEN()
		}
		c.VL = vl
		c.setX(in.Rd, int64(vl))

	// --- vector memory ---
	case isa.OpVLE32:
		c.Mem.LoadSpan(uint64(c.X[in.Rs1]), c.V[in.Rd][:c.VL])
	case isa.OpVSE32:
		c.Mem.StoreSpan(uint64(c.X[in.Rs1]), c.V[in.Rs2][:c.VL])
	case isa.OpVLSE32:
		base, stride := uint64(c.X[in.Rs1]), uint64(c.X[in.Rs2])
		for i := 0; i < c.VL; i++ {
			c.V[in.Rd][i] = c.Mem.LoadF(base + uint64(i)*stride)
		}
	case isa.OpVSSE32:
		base, stride := uint64(c.X[in.Rs1]), uint64(c.X[in.Rs2])
		for i := 0; i < c.VL; i++ {
			c.Mem.StoreF(base+uint64(i)*stride, c.V[in.Funct][i])
		}

	// --- vector arithmetic ---
	case isa.OpVADD:
		c.vv(in, func(a, b float32) float32 { return a + b })
	case isa.OpVSUB:
		c.vv(in, func(a, b float32) float32 { return a - b })
	case isa.OpVMUL:
		c.vv(in, func(a, b float32) float32 { return a * b })
	case isa.OpVDIV:
		c.vv(in, func(a, b float32) float32 { return a / b })
	case isa.OpVMAX:
		c.vv(in, maxf)
	case isa.OpVMIN:
		c.vv(in, minf)
	case isa.OpVMACC:
		for i := 0; i < c.VL; i++ {
			c.V[in.Rd][i] += c.V[in.Rs1][i] * c.V[in.Rs2][i]
		}
	case isa.OpVADDVF:
		c.vf(in, func(a, f float32) float32 { return a + f })
	case isa.OpVSUBVF:
		c.vf(in, func(a, f float32) float32 { return a - f })
	case isa.OpVRSUBVF:
		c.vf(in, func(a, f float32) float32 { return f - a })
	case isa.OpVMULVF:
		c.vf(in, func(a, f float32) float32 { return a * f })
	case isa.OpVMAXVF:
		c.vf(in, maxf)
	case isa.OpVMACCVF:
		f := c.F[in.Rs2]
		for i := 0; i < c.VL; i++ {
			c.V[in.Rd][i] += c.V[in.Rs1][i] * f
		}
	case isa.OpVBCAST:
		f := c.F[in.Rs1]
		for i := 0; i < c.VL; i++ {
			c.V[in.Rd][i] = f
		}
	case isa.OpVMV:
		copy(c.V[in.Rd][:c.VL], c.V[in.Rs1][:c.VL])
	case isa.OpVREDSUM:
		var s float64
		for i := 0; i < c.VL; i++ {
			s += float64(c.V[in.Rs1][i])
		}
		c.F[in.Rd] = float32(s)
	case isa.OpVREDMAX:
		m := float32(math.Inf(-1))
		for i := 0; i < c.VL; i++ {
			m = maxf(m, c.V[in.Rs1][i])
		}
		c.F[in.Rd] = m

	// --- SFU ---
	case isa.OpSFU:
		fn := sfuFunc(in.Funct)
		for i := 0; i < c.VL; i++ {
			c.V[in.Rd][i] = fn(c.V[in.Rs1][i])
		}

	// --- DMA ---
	case isa.OpCONFIG:
		c.config(in)
	case isa.OpMVIN:
		d := c.DMA
		if err := d.RunIn(c.Mem.DRAM, c.Mem.Spad, uint64(c.X[in.Rs1]), uint64(c.X[in.Rs2])); err != nil {
			return 0, false, err
		}
		c.DMABytesIn += int64(d.TotalBytes())
	case isa.OpMVOUT:
		d := c.DMA
		if err := d.RunOut(c.Mem.DRAM, c.Mem.Spad, uint64(c.X[in.Rs1]), uint64(c.X[in.Rs2])); err != nil {
			return 0, false, err
		}
		c.DMABytesOut += int64(d.TotalBytes())
	case isa.OpWAITDMA:
		// Functional DMAs complete synchronously; nothing to wait for.

	// --- systolic array ---
	case isa.OpWVPUSH:
		if err := c.SA.PushWeight(c.V[in.Rs1][:c.VL]); err != nil {
			return 0, false, err
		}
	case isa.OpIVPUSH:
		if err := c.SA.PushInput(c.V[in.Rs1][:c.VL]); err != nil {
			return 0, false, err
		}
	case isa.OpVPOP:
		row, ok := c.SA.PopOutput()
		if !ok {
			return 0, false, fmt.Errorf("vpop on empty deserializer")
		}
		n := copy(c.V[in.Rd], row)
		for i := n; i < c.VL; i++ {
			c.V[in.Rd][i] = 0
		}

	default:
		return 0, false, fmt.Errorf("unimplemented opcode %v", in.Op)
	}

	if c.Trace != nil {
		c.Trace(TraceEvent{PC: pc, Instr: in, VL: c.VL, Taken: taken})
	}
	return next, halted, nil
}

func (c *Core) setX(rd uint8, v int64) {
	if rd != 0 {
		c.X[rd] = v
	}
}

func (c *Core) addr(rs1 uint8, imm int32) uint64 {
	return uint64(c.X[rs1] + int64(imm))
}

func (c *Core) vv(in isa.Instr, f func(a, b float32) float32) {
	for i := 0; i < c.VL; i++ {
		c.V[in.Rd][i] = f(c.V[in.Rs1][i], c.V[in.Rs2][i])
	}
}

func (c *Core) vf(in isa.Instr, f func(a, fs float32) float32) {
	fs := c.F[in.Rs2]
	for i := 0; i < c.VL; i++ {
		c.V[in.Rd][i] = f(c.V[in.Rs1][i], fs)
	}
}

func (c *Core) config(in isa.Instr) {
	r1, r2 := c.X[in.Rs1], c.X[in.Rs2]
	switch in.Funct {
	case isa.ConfigShape:
		c.DMA.Rows, c.DMA.Cols = int(r1), int(r2)
	case isa.ConfigStride:
		c.DMA.DRAMStride, c.DMA.SpadStride = int(r1), int(r2)
	case isa.ConfigFlags:
		c.DMA.Transpose = r1&1 != 0
		c.DMA.ElemBytes = int(r1 >> 8 & 0xff)
		c.DMA.Interleave = int(r2)
	case isa.ConfigOuter:
		c.DMA.Outer, c.DMA.OuterStride = int(r1), int(r2)
	}
}

func sfuFunc(f uint8) func(float32) float32 {
	switch f {
	case isa.SFUExp:
		return func(x float32) float32 { return float32(math.Exp(float64(x))) }
	case isa.SFUTanh:
		return func(x float32) float32 { return float32(math.Tanh(float64(x))) }
	case isa.SFURecip:
		return func(x float32) float32 { return 1 / x }
	case isa.SFURsqrt:
		return func(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) }
	case isa.SFUGelu:
		return func(x float32) float32 {
			const c = 0.7978845608028654
			x64 := float64(x)
			return float32(0.5 * x64 * (1 + math.Tanh(c*(x64+0.044715*x64*x64*x64))))
		}
	case isa.SFUSigmoid:
		return func(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
	case isa.SFULog:
		return func(x float32) float32 { return float32(math.Log(float64(x))) }
	case isa.SFUSqrt:
		return func(x float32) float32 { return float32(math.Sqrt(float64(x))) }
	default:
		return func(x float32) float32 { return x }
	}
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
