package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(1); op < opCount; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Fatalf("op %d has no mnemonic", op)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("mnemonic %q used by both %d and %d", s, prev, op)
		}
		seen[s] = op
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(opRaw, rd, rs1, rs2, funct uint8, imm int32) bool {
		op := Op(1 + int(opRaw)%int(opCount-1))
		in := Instr{Op: op, Rd: rd % 32, Rs1: rs1 % 32, Rs2: rs2 % 32, Imm: imm}
		switch op {
		case OpSFU:
			in.Funct = funct % sfuCount
		case OpCONFIG:
			in.Funct = funct % (ConfigOuter + 1)
		default:
			in.Funct = funct % 32
		}
		got, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		return got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsInvalidOpcode(t *testing.T) {
	if _, err := Decode(Encode(Instr{Op: opCount})); err == nil {
		t.Fatal("expected error for out-of-range opcode")
	}
	if _, err := Decode(0); err == nil {
		t.Fatal("expected error for OpInvalid")
	}
}

func TestEncodeProgramRoundTrip(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpADDI, Rd: 1, Rs1: 0, Imm: 42},
		{Op: OpVADD, Rd: 3, Rs1: 1, Rs2: 2},
		FLI(5, 3.14159),
		{Op: OpHALT},
	}}
	code := EncodeProgram(p)
	if len(code) != 4*WordBytes {
		t.Fatalf("code length %d", len(code))
	}
	back, err := DecodeProgram("t", code)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Instrs {
		if back.Instrs[i] != p.Instrs[i] {
			t.Fatalf("instr %d: got %v, want %v", i, back.Instrs[i], p.Instrs[i])
		}
	}
}

func TestFLIPreservesFloat(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) {
			return true // NaN payloads round-trip bitwise but != compares false
		}
		return FLI(0, v).FloatImm() == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderLabelsForwardAndBackward(t *testing.T) {
	b := NewBuilder("loop")
	b.Emit(Instr{Op: OpADDI, Rd: 1, Imm: 0})  // 0: i = 0
	b.Emit(Instr{Op: OpADDI, Rd: 2, Imm: 10}) // 1: n = 10
	b.Label("head")
	b.Branch(OpBGE, 1, 2, "done")                    // 2: if i >= n goto done
	b.Emit(Instr{Op: OpADDI, Rd: 1, Rs1: 1, Imm: 1}) // 3: i++
	b.Jump("head")                                   // 4
	b.Label("done")
	b.Emit(Instr{Op: OpHALT}) // 5
	p := b.Build()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Instrs[2].Imm != 3 { // 2 -> 5
		t.Fatalf("forward branch imm = %d, want 3", p.Instrs[2].Imm)
	}
	if p.Instrs[4].Imm != -2 { // 4 -> 2
		t.Fatalf("backward jump imm = %d, want -2", p.Instrs[4].Imm)
	}
}

func TestBuilderUnresolvedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unresolved label")
		}
	}()
	b := NewBuilder("bad")
	b.Jump("nowhere")
	b.Build()
}

func TestValidateCatchesBadBranch(t *testing.T) {
	p := &Program{Name: "bad", Instrs: []Instr{
		{Op: OpBEQ, Imm: 100},
		{Op: OpHALT},
	}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected out-of-range branch error")
	}
}

// TestValidateCatchesVSSE32Register: vsse32 names its source vector
// register in Funct, an 8-bit field, so machine code can name v32..v255;
// Validate rejects it rather than leaving the simulators an index panic.
func TestValidateCatchesVSSE32Register(t *testing.T) {
	bad := Instr{Op: OpVSSE32, Rs1: 1, Rs2: 2, Funct: NumVectorRegs}
	if err := bad.Validate(); err == nil {
		t.Fatalf("%v validated", bad)
	}
	if _, err := Decode(Encode(bad)); err == nil {
		t.Fatalf("decoding %v succeeded", bad)
	}
	if err := (Instr{Op: OpVSSE32, Funct: NumVectorRegs - 1}).Validate(); err != nil {
		t.Fatalf("v31 rejected: %v", err)
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	// Every instruction form, printed then re-parsed, must be identical.
	prog := &Program{Name: "all", Labels: map[string]int{}, Instrs: []Instr{
		{Op: OpADDI, Rd: 1, Rs1: 2, Imm: -5},
		{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpSUB, Rd: 4, Rs1: 5, Rs2: 6},
		{Op: OpMUL, Rd: 7, Rs1: 8, Rs2: 9},
		{Op: OpSLLI, Rd: 1, Rs1: 1, Imm: 4},
		{Op: OpSRLI, Rd: 1, Rs1: 1, Imm: 2},
		{Op: OpAND, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpOR, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpXOR, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpLUI, Rd: 1, Imm: 1024},
		{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: 2},
		{Op: OpBNE, Rs1: 1, Rs2: 2, Imm: -2},
		{Op: OpBLT, Rs1: 1, Rs2: 2, Imm: 1},
		{Op: OpBGE, Rs1: 1, Rs2: 2, Imm: 1},
		{Op: OpJAL, Rd: 0, Imm: 1},
		{Op: OpLW, Rd: 3, Rs1: 4, Imm: 8},
		{Op: OpSW, Rs2: 3, Rs1: 4, Imm: -8},
		{Op: OpFLW, Rd: 3, Rs1: 4, Imm: 16},
		{Op: OpFSW, Rs2: 3, Rs1: 4, Imm: 0},
		{Op: OpFADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpFSUB, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpFMUL, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpFDIV, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpFSQRT, Rd: 1, Rs1: 2},
		{Op: OpFMIN, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpFMAX, Rd: 1, Rs1: 2, Rs2: 3},
		FLI(2, 1.5),
		{Op: OpFMVXF, Rd: 1, Rs1: 2},
		{Op: OpFMVFX, Rd: 1, Rs1: 2},
		{Op: OpSETVL, Rd: 1, Rs1: 2},
		{Op: OpVLE32, Rd: 1, Rs1: 2},
		{Op: OpVSE32, Rs2: 1, Rs1: 2},
		{Op: OpVLSE32, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVSSE32, Funct: 1, Rs1: 2, Rs2: 3},
		{Op: OpVADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVSUB, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVMUL, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVDIV, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVMAX, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVMIN, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVMACC, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVADDVF, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVSUBVF, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVRSUBVF, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVMULVF, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVMAXVF, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVMACCVF, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVBCAST, Rd: 1, Rs1: 2},
		{Op: OpVMV, Rd: 1, Rs1: 2},
		{Op: OpVREDSUM, Rd: 1, Rs1: 2},
		{Op: OpVREDMAX, Rd: 1, Rs1: 2},
		{Op: OpSFU, Rd: 1, Rs1: 2, Funct: SFUExp},
		{Op: OpSFU, Rd: 1, Rs1: 2, Funct: SFUGelu},
		{Op: OpCONFIG, Rs1: 1, Rs2: 2, Funct: ConfigShape},
		{Op: OpCONFIG, Rs1: 1, Rs2: 2, Funct: ConfigFlags},
		{Op: OpMVIN, Rs1: 1, Rs2: 2},
		{Op: OpMVOUT, Rs1: 1, Rs2: 2},
		{Op: OpWAITDMA, Rs1: 0},
		{Op: OpWVPUSH, Rs1: 1},
		{Op: OpIVPUSH, Rs1: 2},
		{Op: OpVPOP, Rd: 3},
		{Op: OpHALT},
	}}
	text := prog.Dump()
	back, err := Assemble("all", text)
	if err != nil {
		t.Fatalf("assemble failed: %v\n%s", err, text)
	}
	if len(back.Instrs) != len(prog.Instrs) {
		t.Fatalf("got %d instrs, want %d", len(back.Instrs), len(prog.Instrs))
	}
	for i := range prog.Instrs {
		if back.Instrs[i] != prog.Instrs[i] {
			t.Fatalf("instr %d: got %v, want %v", i, back.Instrs[i], prog.Instrs[i])
		}
	}
}

func TestAssembleWithLabels(t *testing.T) {
	src := `
		# simple counted loop
		addi x1, x0, 0
		addi x2, x0, 5
	head:
		bge x1, x2, done
		addi x1, x1, 1
		jal x0, head
	done:
		halt
	`
	p, err := Assemble("loop", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["head"] != 2 || p.Labels["done"] != 5 {
		t.Fatalf("labels wrong: %v", p.Labels)
	}
	if p.Instrs[2].Imm != 3 || p.Instrs[4].Imm != -2 {
		t.Fatalf("branch offsets wrong: %v %v", p.Instrs[2], p.Instrs[4])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus x1, x2",
		"add x1, x2",        // missing operand
		"addi x1, f2, 3",    // wrong register class
		"vadd v1, v2, v99",  // register out of range
		"sfu.nope v1, v2",   // unknown SFU fn
		"beq x1, x2, never", // unresolved label -> Build panics; catch below
	}
	for _, src := range cases[:5] {
		if _, err := Assemble("bad", src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
	func() {
		defer func() { recover() }()
		if _, err := Assemble("bad", cases[5]+"\nhalt"); err == nil {
			t.Fatal("expected failure for unresolved label")
		}
	}()
}

func TestClassOf(t *testing.T) {
	cases := map[Op]Class{
		OpADD:     ClassScalar,
		OpBEQ:     ClassScalar,
		OpLW:      ClassScalarMem,
		OpFADD:    ClassFloat,
		OpVADD:    ClassVector,
		OpSETVL:   ClassVector,
		OpVLE32:   ClassVectorMem,
		OpSFU:     ClassSFU,
		OpMVIN:    ClassDMA,
		OpWAITDMA: ClassDMA,
		OpIVPUSH:  ClassSA,
		OpVPOP:    ClassSA,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Fatalf("ClassOf(%v) = %d, want %d", op, got, want)
		}
	}
}

func TestIsSpadAddr(t *testing.T) {
	if IsSpadAddr(0) || IsSpadAddr(SpadBase-1) {
		t.Fatal("low addresses must be DRAM")
	}
	if !IsSpadAddr(SpadBase) || !IsSpadAddr(SpadBase+4096) {
		t.Fatal("high addresses must be scratchpad")
	}
}

func TestEverySFUSelectorRoundTrips(t *testing.T) {
	// Exhaustive over selectors so a newly added SFU function cannot miss
	// the assembler or the binary codec.
	for f := uint8(0); f < sfuCount; f++ {
		in := Instr{Op: OpSFU, Rd: 1, Rs1: 2, Funct: f}
		p := &Program{Name: "sfu", Instrs: []Instr{in, {Op: OpHALT}}}
		back, err := Assemble("sfu", p.Dump())
		if err != nil {
			t.Fatalf("sfu.%s does not assemble: %v", SFUName(f), err)
		}
		if back.Instrs[0] != in {
			t.Fatalf("sfu.%s assembler round-trip: %+v", SFUName(f), back.Instrs[0])
		}
		dec, err := Decode(Encode(in))
		if err != nil || dec != in {
			t.Fatalf("sfu.%s binary round-trip: %+v, %v", SFUName(f), dec, err)
		}
	}
}

func TestEveryOpHasNameAndClass(t *testing.T) {
	for op := OpHALT; op < opCount; op++ {
		if opNames[op] == "" {
			t.Fatalf("op %d has no mnemonic", op)
		}
		if c := ClassOf(op); c > ClassSA {
			t.Fatalf("op %s has out-of-range class %d", opNames[op], c)
		}
	}
}
