package isa

import (
	"fmt"
	"math"
	"strings"
)

// Architectural constants of the NPU core model. The logical vector register
// width is NumVectorUnits x LanesPerUnit elements (the paper's TPUv3 model:
// 128 vector units x 16 lanes); SETVL clamps the active vector length.
const (
	NumScalarRegs = 32
	NumFloatRegs  = 32
	NumVectorRegs = 32
)

// Memory map: DRAM occupies low addresses; the software-managed scratchpad
// is mapped at a high virtual address region (§3.4).
const (
	SpadBase uint64 = 0x8000_0000_0000
)

// IsSpadAddr reports whether addr falls in the scratchpad region.
func IsSpadAddr(addr uint64) bool { return addr >= SpadBase }

// Instr is one decoded NPU instruction. Register fields are interpreted per
// opcode (scalar x, float f, or vector v index); Funct selects the SFU
// function or CONFIG descriptor field; Imm carries immediates, branch
// offsets (in instructions), and FLI float bit patterns.
type Instr struct {
	Op    Op
	Rd    uint8
	Rs1   uint8
	Rs2   uint8
	Funct uint8
	Imm   int32
}

// FLI constructs the float-immediate instruction.
func FLI(fd uint8, v float32) Instr {
	return Instr{Op: OpFLI, Rd: fd, Imm: int32(math.Float32bits(v))}
}

// FloatImm returns the float32 encoded in an FLI instruction.
func (i Instr) FloatImm() float32 { return math.Float32frombits(uint32(i.Imm)) }

// Validate checks field ranges for the instruction.
func (i Instr) Validate() error {
	if i.Op == OpInvalid || i.Op >= opCount {
		return fmt.Errorf("isa: invalid opcode %d", i.Op)
	}
	if i.Rd >= 32 || i.Rs1 >= 32 || i.Rs2 >= 32 {
		return fmt.Errorf("isa: register index out of range in %v", i)
	}
	if i.Op == OpVSSE32 && i.Funct >= NumVectorRegs {
		return fmt.Errorf("isa: vector register index out of range in %v", i)
	}
	if i.Op == OpSFU && i.Funct >= sfuCount {
		return fmt.Errorf("isa: SFU funct %d out of range", i.Funct)
	}
	if i.Op == OpCONFIG && i.Funct > ConfigOuter {
		return fmt.Errorf("isa: CONFIG funct %d out of range", i.Funct)
	}
	return nil
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	switch i.Op {
	case OpADDI, OpSLLI, OpSRLI:
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpLUI:
		return fmt.Sprintf("%s x%d, %d", i.Op, i.Rd, i.Imm)
	case OpADD, OpSUB, OpMUL, OpAND, OpOR, OpXOR:
		return fmt.Sprintf("%s x%d, x%d, x%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpBEQ, OpBNE, OpBLT, OpBGE:
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case OpJAL:
		return fmt.Sprintf("%s x%d, %d", i.Op, i.Rd, i.Imm)
	case OpHALT:
		return "halt"
	case OpLW:
		return fmt.Sprintf("lw x%d, %d(x%d)", i.Rd, i.Imm, i.Rs1)
	case OpSW:
		return fmt.Sprintf("sw x%d, %d(x%d)", i.Rs2, i.Imm, i.Rs1)
	case OpFLW:
		return fmt.Sprintf("flw f%d, %d(x%d)", i.Rd, i.Imm, i.Rs1)
	case OpFSW:
		return fmt.Sprintf("fsw f%d, %d(x%d)", i.Rs2, i.Imm, i.Rs1)
	case OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFMIN, OpFMAX:
		return fmt.Sprintf("%s f%d, f%d, f%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpFSQRT:
		return fmt.Sprintf("fsqrt f%d, f%d", i.Rd, i.Rs1)
	case OpFLI:
		return fmt.Sprintf("fli f%d, %g", i.Rd, i.FloatImm())
	case OpFMVXF:
		return fmt.Sprintf("fmv.x.f x%d, f%d", i.Rd, i.Rs1)
	case OpFMVFX:
		return fmt.Sprintf("fmv.f.x f%d, x%d", i.Rd, i.Rs1)
	case OpSETVL:
		return fmt.Sprintf("setvl x%d, x%d", i.Rd, i.Rs1)
	case OpVLE32, OpVLSE32:
		if i.Op == OpVLSE32 {
			return fmt.Sprintf("vlse32 v%d, (x%d), x%d", i.Rd, i.Rs1, i.Rs2)
		}
		return fmt.Sprintf("vle32 v%d, (x%d)", i.Rd, i.Rs1)
	case OpVSE32:
		return fmt.Sprintf("vse32 v%d, (x%d)", i.Rs2, i.Rs1)
	case OpVSSE32:
		return fmt.Sprintf("vsse32 v%d, (x%d), x%d", i.Funct, i.Rs1, i.Rs2)
	case OpVADD, OpVSUB, OpVMUL, OpVDIV, OpVMAX, OpVMIN, OpVMACC:
		return fmt.Sprintf("%s v%d, v%d, v%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpVADDVF, OpVSUBVF, OpVRSUBVF, OpVMULVF, OpVMAXVF, OpVMACCVF:
		return fmt.Sprintf("%s v%d, v%d, f%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpVBCAST:
		return fmt.Sprintf("vbcast v%d, f%d", i.Rd, i.Rs1)
	case OpVMV:
		return fmt.Sprintf("vmv v%d, v%d", i.Rd, i.Rs1)
	case OpVREDSUM, OpVREDMAX:
		return fmt.Sprintf("%s f%d, v%d", i.Op, i.Rd, i.Rs1)
	case OpSFU:
		return fmt.Sprintf("sfu.%s v%d, v%d", SFUName(i.Funct), i.Rd, i.Rs1)
	case OpCONFIG:
		return fmt.Sprintf("config.%d x%d, x%d", i.Funct, i.Rs1, i.Rs2)
	case OpMVIN:
		return fmt.Sprintf("mvin x%d, x%d", i.Rs1, i.Rs2)
	case OpMVOUT:
		return fmt.Sprintf("mvout x%d, x%d", i.Rs1, i.Rs2)
	case OpWAITDMA:
		return fmt.Sprintf("waitdma x%d", i.Rs1)
	case OpWVPUSH:
		return fmt.Sprintf("wvpush v%d", i.Rs1)
	case OpIVPUSH:
		return fmt.Sprintf("ivpush v%d", i.Rs1)
	case OpVPOP:
		return fmt.Sprintf("vpop v%d", i.Rd)
	default:
		return fmt.Sprintf("%s rd=%d rs1=%d rs2=%d funct=%d imm=%d", i.Op, i.Rd, i.Rs1, i.Rs2, i.Funct, i.Imm)
	}
}

// Program is a sequence of instructions plus optional debug labels
// (label name -> instruction index).
type Program struct {
	Name   string
	Instrs []Instr
	Labels map[string]int
}

// Validate checks every instruction and that the program ends reachably.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	for idx, in := range p.Instrs {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("isa: %q instr %d: %w", p.Name, idx, err)
		}
		if IsBranch(in.Op) {
			tgt := idx + int(in.Imm)
			if tgt < 0 || tgt >= len(p.Instrs) {
				return fmt.Errorf("isa: %q instr %d: branch target %d out of range", p.Name, idx, tgt)
			}
		}
	}
	return nil
}

// Dump renders the whole program in assembler syntax with indices.
func (p *Program) Dump() string {
	inverse := map[int][]string{}
	for name, idx := range p.Labels {
		inverse[idx] = append(inverse[idx], name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# program %s (%d instrs)\n", p.Name, len(p.Instrs))
	for i, in := range p.Instrs {
		for _, l := range inverse[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%5d: %s\n", i, in)
	}
	return b.String()
}

// Builder incrementally assembles a Program with label fix-ups, used by the
// code generator.
type Builder struct {
	prog    Program
	pending map[string][]int // label -> instruction indices needing patch
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		prog:    Program{Name: name, Labels: map[string]int{}},
		pending: map[string][]int{},
	}
}

// Emit appends an instruction and returns its index.
func (b *Builder) Emit(in Instr) int {
	b.prog.Instrs = append(b.prog.Instrs, in)
	return len(b.prog.Instrs) - 1
}

// Label binds name to the next instruction index and patches pending branches.
func (b *Builder) Label(name string) {
	at := len(b.prog.Instrs)
	if _, dup := b.prog.Labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.prog.Labels[name] = at
	for _, idx := range b.pending[name] {
		b.prog.Instrs[idx].Imm = int32(at - idx)
	}
	delete(b.pending, name)
}

// Branch emits a branch to the (possibly not yet defined) label.
func (b *Builder) Branch(op Op, rs1, rs2 uint8, label string) {
	idx := b.Emit(Instr{Op: op, Rs1: rs1, Rs2: rs2})
	if at, ok := b.prog.Labels[label]; ok {
		b.prog.Instrs[idx].Imm = int32(at - idx)
	} else {
		b.pending[label] = append(b.pending[label], idx)
	}
}

// Jump emits an unconditional jump (JAL x0) to the label.
func (b *Builder) Jump(label string) {
	idx := b.Emit(Instr{Op: OpJAL})
	if at, ok := b.prog.Labels[label]; ok {
		b.prog.Instrs[idx].Imm = int32(at - idx)
	} else {
		b.pending[label] = append(b.pending[label], idx)
	}
}

// Build finalizes the program. It panics on unresolved labels.
func (b *Builder) Build() *Program {
	if len(b.pending) > 0 {
		for name := range b.pending {
			panic(fmt.Sprintf("isa: unresolved label %q in %q", name, b.prog.Name))
		}
	}
	p := b.prog
	return &p
}
