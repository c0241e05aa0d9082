package isa

// RegFile identifies a register file: scalar x, float f or vector v.
type RegFile uint8

const (
	FileX RegFile = iota
	FileF
	FileV
)

// Reg names one architectural register.
type Reg struct {
	File RegFile
	Idx  uint8
}

// Reads appends the registers i reads to dst and returns the extended slice.
// No instruction reads more than three, so a caller that passes a slice with
// spare capacity for three appends without allocating.
func (i Instr) Reads(dst []Reg) []Reg {
	switch i.Op {
	case OpADDI, OpSLLI, OpSRLI, OpLW, OpFLW, OpFMVFX, OpSETVL, OpVLE32, OpWAITDMA:
		return append(dst, Reg{FileX, i.Rs1})
	case OpADD, OpSUB, OpMUL, OpAND, OpOR, OpXOR, OpBEQ, OpBNE, OpBLT, OpBGE,
		OpSW, OpVLSE32, OpCONFIG, OpMVIN, OpMVOUT:
		return append(dst, Reg{FileX, i.Rs1}, Reg{FileX, i.Rs2})
	case OpFSW:
		return append(dst, Reg{FileX, i.Rs1}, Reg{FileF, i.Rs2})
	case OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFMIN, OpFMAX:
		return append(dst, Reg{FileF, i.Rs1}, Reg{FileF, i.Rs2})
	case OpFSQRT, OpFMVXF, OpVBCAST:
		return append(dst, Reg{FileF, i.Rs1})
	case OpVSE32:
		return append(dst, Reg{FileX, i.Rs1}, Reg{FileV, i.Rs2})
	case OpVSSE32:
		return append(dst, Reg{FileX, i.Rs1}, Reg{FileX, i.Rs2}, Reg{FileV, i.Funct})
	case OpVADD, OpVSUB, OpVMUL, OpVDIV, OpVMAX, OpVMIN:
		return append(dst, Reg{FileV, i.Rs1}, Reg{FileV, i.Rs2})
	case OpVMACC:
		return append(dst, Reg{FileV, i.Rd}, Reg{FileV, i.Rs1}, Reg{FileV, i.Rs2})
	case OpVADDVF, OpVSUBVF, OpVRSUBVF, OpVMULVF, OpVMAXVF:
		return append(dst, Reg{FileV, i.Rs1}, Reg{FileF, i.Rs2})
	case OpVMACCVF:
		return append(dst, Reg{FileV, i.Rd}, Reg{FileV, i.Rs1}, Reg{FileF, i.Rs2})
	case OpVMV, OpVREDSUM, OpVREDMAX, OpSFU, OpWVPUSH, OpIVPUSH:
		return append(dst, Reg{FileV, i.Rs1})
	default: // LUI, JAL, HALT, FLI, VPOP
		return dst
	}
}

// Writes appends the register i writes, if any, to dst and returns the
// extended slice.
func (i Instr) Writes(dst []Reg) []Reg {
	switch i.Op {
	case OpADDI, OpADD, OpSUB, OpMUL, OpSLLI, OpSRLI, OpAND, OpOR, OpXOR,
		OpLUI, OpJAL, OpLW, OpFMVXF, OpSETVL:
		return append(dst, Reg{FileX, i.Rd})
	case OpFLW, OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFSQRT, OpFMIN, OpFMAX,
		OpFLI, OpFMVFX, OpVREDSUM, OpVREDMAX:
		return append(dst, Reg{FileF, i.Rd})
	case OpVLE32, OpVLSE32, OpVADD, OpVSUB, OpVMUL, OpVDIV, OpVMAX, OpVMIN,
		OpVMACC, OpVADDVF, OpVSUBVF, OpVRSUBVF, OpVMULVF, OpVMAXVF, OpVMACCVF,
		OpVBCAST, OpVMV, OpSFU, OpVPOP:
		return append(dst, Reg{FileV, i.Rd})
	default:
		return dst
	}
}
