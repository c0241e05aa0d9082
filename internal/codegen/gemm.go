// Package codegen generates NPU machine-code kernels for tile operations —
// the role of the paper's MLIR kernel templates (§3.6.2): a software-
// pipelined weight-stationary GEMM template with fused epilogues, and
// loop-level-IR-style vector kernels for pointwise, reduction, softmax,
// layernorm, pooling, and optimizer ops. Kernels operate on tiles already
// resident in scratchpad (DMA happens at the TOG level); the timing
// simulator measures each kernel once per unique shape to obtain the TOG
// compute-node latency.
package codegen

import (
	"fmt"

	"repro/internal/isa"
)

// Epilogue selects the fused operation applied to GEMM output rows before
// they are stored (operator fusion, §3.6.3).
type Epilogue struct {
	Bias       bool // add a bias row (at BiasOff)
	ScaleShift bool // multiply by gamma row and add beta row (folded BN)
	ReLU       bool
	GELU       bool
}

func (e Epilogue) String() string {
	s := ""
	if e.Bias {
		s += "_bias"
	}
	if e.ScaleShift {
		s += "_bn"
	}
	if e.ReLU {
		s += "_relu"
	}
	if e.GELU {
		s += "_gelu"
	}
	return s
}

// GEMMSpec describes one GEMM tile operation: out[M,N] (+)= in[M,K] @ w[K,N].
// Offsets are scratchpad byte offsets (relative to isa.SpadBase).
type GEMMSpec struct {
	M, K, N    int
	Accumulate bool // add into existing output tile (K-panel accumulation)
	Epi        Epilogue
	InOff      int64
	WOff       int64
	OutOff     int64
	BiasOff    int64
	GammaOff   int64 // scale_shift epilogue: gamma row
	BetaOff    int64 // scale_shift epilogue: beta row

	// InRowStride is the byte stride between consecutive input-tile rows in
	// scratchpad; 0 means K*4 (a densely packed tile). A K-panel kernel
	// reading from a wider resident stripe passes the stripe's row pitch.
	InRowStride int64
	// OutRowStride likewise for the output tile; 0 means N*4.
	OutRowStride int64
}

// Signature returns the kernel cache key: kernels with equal signatures
// have identical instruction streams up to scratchpad offsets, hence equal
// deterministic latency.
func (s GEMMSpec) Signature() string {
	acc := ""
	if s.Accumulate {
		acc = "_acc"
	}
	// Row strides appear because address materialization cost differs for
	// wide strides (12-bit vs 32-bit immediates).
	return fmt.Sprintf("gemm_m%d_k%d_n%d_is%d_os%d%s%s", s.M, s.K, s.N, s.InRowStride, s.OutRowStride, acc, s.Epi)
}

// Register conventions used by generated kernels.
const (
	rTmp    = 1 // scratch address register
	rTmp2   = 2
	rVL     = 3
	rZero   = 0
	rBase   = 8 // cached scratchpad base (set once per kernel)
	rOffTmp = 7 // scratch for large-offset materialization
	vWeight = 1 // weight row staging
	vIn     = 2 // input row staging
	vOut    = 3 // popped output row
	vAcc    = 4 // accumulator / epilogue scratch
	vBias   = 5
	vGamma  = 6
	vBeta   = 7
	fZero   = 1
)

// emitSpadBase caches SpadBase (1 << 47, which fits no immediate) in rBase.
// Every kernel emits this prologue once.
func emitSpadBase(b *isa.Builder) {
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: rBase, Rs1: 0, Imm: 1})
	b.Emit(isa.Instr{Op: isa.OpSLLI, Rd: rBase, Rs1: rBase, Imm: 47})
}

// emitSpadAddr materializes SpadBase+off into rd in a constant number of
// instructions: always LUI+ADDI+ADD (hi is simply 0 for 12-bit offsets).
// Constant length is load-bearing: kernel signatures exclude scratchpad
// offsets, so the latency cache assumes placement never changes the
// instruction stream's shape. A short-form ADDI for small offsets would
// make two same-signature kernels differ in length once one of them is
// placed past the 12-bit boundary, and the cached latency would be wrong
// for the other — breaking ILS/TLS cycle agreement.
func emitSpadAddr(b *isa.Builder, rd uint8, off int64) {
	hi := (off + 0x800) >> 12
	lo := off - hi<<12
	b.Emit(isa.Instr{Op: isa.OpLUI, Rd: rOffTmp, Imm: int32(hi)})
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: rOffTmp, Rs1: rOffTmp, Imm: int32(lo)})
	b.Emit(isa.Instr{Op: isa.OpADD, Rd: rd, Rs1: rBase, Rs2: rOffTmp})
}

// emitSetVL sets VL to n.
func emitSetVL(b *isa.Builder, n int) {
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: rVL, Rs1: 0, Imm: int32(n)})
	b.Emit(isa.Instr{Op: isa.OpSETVL, Rd: rVL, Rs1: rVL})
}

// Additional pointer registers used by the GEMM template.
const (
	rInPtr     = 9
	rOutPtr    = 10
	rStrideIn  = 11
	rStrideOut = 12
	rWPtr      = 13
	rStrideW   = 14
)

// emitLoadConst materializes a constant into rd (1-2 instructions).
func emitLoadConst(b *isa.Builder, rd uint8, v int64) {
	if v >= -2048 && v <= 2047 {
		b.Emit(isa.Instr{Op: isa.OpADDI, Rd: rd, Rs1: 0, Imm: int32(v)})
		return
	}
	hi := (v + 0x800) >> 12
	lo := v - hi<<12
	b.Emit(isa.Instr{Op: isa.OpLUI, Rd: rd, Imm: int32(hi)})
	b.Emit(isa.Instr{Op: isa.OpADDI, Rd: rd, Rs1: rd, Imm: int32(lo)})
}

// GEMM generates the weight-stationary GEMM tile kernel. Weight rows are
// pushed first; then all M input rows stream through the array before the
// first output pops — the deserializer FIFO (accumulator) is deep enough
// to hold a full tile's outputs, so the SA's K+N pipeline fill is paid
// once per tile. Row addresses advance by pointer increments, and the
// vector length changes once between the pushes and the pops. Each popped
// output row has the epilogue applied and is stored (or accumulated) to
// the output tile.
func GEMM(spec GEMMSpec) *isa.Program {
	if spec.M <= 0 || spec.K <= 0 || spec.N <= 0 {
		panic(fmt.Sprintf("codegen: bad GEMM spec %+v", spec))
	}
	inStride := spec.InRowStride
	if inStride == 0 {
		inStride = int64(spec.K * 4)
	}
	outStride := spec.OutRowStride
	if outStride == 0 {
		outStride = int64(spec.N * 4)
	}
	b := isa.NewBuilder(spec.Signature())
	emitSpadBase(b)

	// Load weights: VL = N; walk a pointer over the K rows.
	emitSetVL(b, spec.N)
	emitSpadAddr(b, rWPtr, spec.WOff)
	emitLoadConst(b, rStrideW, int64(spec.N*4))
	for k := 0; k < spec.K; k++ {
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: vWeight, Rs1: rWPtr})
		b.Emit(isa.Instr{Op: isa.OpWVPUSH, Rs1: vWeight})
		b.Emit(isa.Instr{Op: isa.OpADD, Rd: rWPtr, Rs1: rWPtr, Rs2: rStrideW})
	}
	if spec.Epi.Bias {
		emitSpadAddr(b, rTmp, spec.BiasOff)
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: vBias, Rs1: rTmp})
	}
	if spec.Epi.ScaleShift {
		emitSpadAddr(b, rTmp, spec.GammaOff)
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: vGamma, Rs1: rTmp})
		emitSpadAddr(b, rTmp, spec.BetaOff)
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: vBeta, Rs1: rTmp})
	}
	if spec.Epi.ReLU {
		b.Emit(isa.FLI(fZero, 0))
	}

	// Row pointers and strides.
	emitSpadAddr(b, rInPtr, spec.InOff)
	emitSpadAddr(b, rOutPtr, spec.OutOff)
	emitLoadConst(b, rStrideIn, inStride)
	emitLoadConst(b, rStrideOut, outStride)

	emitSetVL(b, spec.K)
	for m := 0; m < spec.M; m++ {
		b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: vIn, Rs1: rInPtr})
		b.Emit(isa.Instr{Op: isa.OpIVPUSH, Rs1: vIn})
		b.Emit(isa.Instr{Op: isa.OpADD, Rd: rInPtr, Rs1: rInPtr, Rs2: rStrideIn})
	}
	emitSetVL(b, spec.N)
	for m := 0; m < spec.M; m++ {
		b.Emit(isa.Instr{Op: isa.OpVPOP, Rd: vOut})
		if spec.Accumulate {
			b.Emit(isa.Instr{Op: isa.OpVLE32, Rd: vAcc, Rs1: rOutPtr})
			b.Emit(isa.Instr{Op: isa.OpVADD, Rd: vOut, Rs1: vOut, Rs2: vAcc})
		}
		if spec.Epi.Bias {
			b.Emit(isa.Instr{Op: isa.OpVADD, Rd: vOut, Rs1: vOut, Rs2: vBias})
		}
		if spec.Epi.ScaleShift {
			b.Emit(isa.Instr{Op: isa.OpVMUL, Rd: vOut, Rs1: vOut, Rs2: vGamma})
			b.Emit(isa.Instr{Op: isa.OpVADD, Rd: vOut, Rs1: vOut, Rs2: vBeta})
		}
		if spec.Epi.ReLU {
			b.Emit(isa.Instr{Op: isa.OpVMAXVF, Rd: vOut, Rs1: vOut, Rs2: fZero})
		}
		if spec.Epi.GELU {
			b.Emit(isa.Instr{Op: isa.OpSFU, Rd: vOut, Rs1: vOut, Funct: isa.SFUGelu})
		}
		b.Emit(isa.Instr{Op: isa.OpVSE32, Rs2: vOut, Rs1: rOutPtr})
		b.Emit(isa.Instr{Op: isa.OpADD, Rd: rOutPtr, Rs1: rOutPtr, Rs2: rStrideOut})
	}
	b.Emit(isa.Instr{Op: isa.OpHALT})
	return b.Build()
}
