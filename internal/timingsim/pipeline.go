// Package timingsim is the cycle-level NPU core timing model (the paper's
// extended Gem5 in-order pipeline). It replays the dynamic instruction
// stream produced by the functional simulator through a scoreboarded
// in-order pipeline with per-unit occupancy (scalar ALU, FPU, vector units,
// SFU, scratchpad ports) and the systolic-array ready-time model, producing
// the deterministic tile compute latencies recorded in the TOG (§3.8).
package timingsim

import (
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/systolic"
)

// Pipeline is a single-issue, in-order core timing model with a scoreboard.
// Instructions issue in order when their operands and functional unit are
// ready; completion latencies depend on the unit and the active vector
// length.
type Pipeline struct {
	cfg npu.CoreConfig

	xReady [32]int64
	fReady [32]int64
	vReady [32]int64

	unitFree  [8]int64 // indexed by isa.Class
	lastIssue int64
	cycles    int64 // completion time of the latest instruction

	// Per-class issue slots: the core issues in order, but instructions
	// bound for different functional units may share a cycle (the VLIW-
	// style parallel scalar/vector/matrix issue of TPU-like cores, §3.4).
	slotCycle [8]int64
	slotCount [8]int

	sa *systolic.Timing

	// Operand buffers Consume fills through isa.Instr.Reads and Writes, so
	// accounting an instruction allocates nothing.
	reads  [3]isa.Reg
	writes [1]isa.Reg

	// BranchPenalty is the redirect penalty of a taken branch (cycles).
	BranchPenalty int64

	// Stats.
	Issued    int64
	StallRAW  int64 // cycles lost waiting on operands
	StallUnit int64 // cycles lost waiting on busy units
	ClassBusy [8]int64
	// ClassOps counts retired instructions per class (SA pushes/pops under
	// ClassSA). ClassOps[isa.ClassSFU] is the SFU activity counter the
	// energy model prices per op at ILS level.
	ClassOps [8]int64
}

// NewPipeline returns a timing model for the given core configuration.
func NewPipeline(cfg npu.CoreConfig) *Pipeline {
	return &Pipeline{
		cfg:           cfg,
		sa:            systolic.NewTiming(cfg.SARows, cfg.SACols, cfg.DesFIFORows),
		BranchPenalty: 3,
	}
}

// Cycles returns the cycle at which all issued instructions have completed.
func (p *Pipeline) Cycles() int64 { return p.cycles }

// classIssueCap is how many instructions of each class may issue in the
// same cycle (independent decode slots per functional unit).
var classIssueCap = [8]int{
	isa.ClassScalar:    2,
	isa.ClassScalarMem: 1,
	isa.ClassFloat:     1,
	isa.ClassVector:    1,
	isa.ClassVectorMem: 2, // two scratchpad ports
	isa.ClassSFU:       1,
	isa.ClassDMA:       1,
	isa.ClassSA:        2, // serializer push + deserializer pop ports
}

// Consume accounts one dynamically executed instruction.
func (p *Pipeline) Consume(e funcsim.TraceEvent) {
	in := e.Instr
	class := isa.ClassOf(in.Op)

	// In-order issue: never before the previous instruction's issue cycle,
	// but same-cycle issue to a different (or multi-slot) unit is allowed.
	issue := p.lastIssue

	// Operand dependencies (RAW and WAW via dest ready times).
	opsReady := issue
	for _, r := range in.Reads(p.reads[:0]) {
		if t := p.readyTime(r); t > opsReady {
			opsReady = t
		}
	}
	writes := in.Writes(p.writes[:0])
	for _, r := range writes {
		if t := p.readyTime(r); t > opsReady {
			opsReady = t // WAW: do not complete before prior writer
		}
	}
	p.StallRAW += opsReady - issue
	issue = opsReady

	// Structural hazard: functional unit availability.
	if t := p.unitFree[class]; t > issue {
		p.StallUnit += t - issue
		issue = t
	}

	// Per-class issue slot availability.
	cap := classIssueCap[class]
	if cap < 1 {
		cap = 1
	}
	if p.slotCycle[class] == issue && p.slotCount[class] >= cap {
		issue++
	}

	var complete int64
	switch in.Op {
	case isa.OpWVPUSH:
		complete = p.sa.PushWeight(issue)
	case isa.OpIVPUSH:
		complete = p.sa.PushInput(issue)
	case isa.OpVPOP:
		complete = p.sa.Pop(issue)
	default:
		lat, occ := p.latency(in, e.VL)
		complete = issue + lat
		p.unitFree[class] = issue + occ
		p.ClassBusy[class] += occ
	}

	// Writeback.
	for _, r := range writes {
		p.setReady(r, complete)
	}

	if p.slotCycle[class] != issue {
		p.slotCycle[class] = issue
		p.slotCount[class] = 0
	}
	p.slotCount[class]++
	p.lastIssue = issue
	if isa.IsBranch(in.Op) && e.Taken {
		p.lastIssue = issue + p.BranchPenalty
	}
	if complete > p.cycles {
		p.cycles = complete
	}
	p.Issued++
	p.ClassOps[class]++
}

// latency returns (result latency, unit occupancy) for a non-SA instruction.
func (p *Pipeline) latency(in isa.Instr, vl int) (lat, occ int64) {
	c := p.cfg
	switch isa.ClassOf(in.Op) {
	case isa.ClassScalar:
		return int64(c.ScalarLatency), 1
	case isa.ClassScalarMem:
		return int64(c.MemLatency), 1
	case isa.ClassFloat:
		if in.Op == isa.OpFDIV || in.Op == isa.OpFSQRT {
			return int64(c.FloatLatency) * 4, int64(c.FloatLatency) * 4 // unpipelined
		}
		return int64(c.FloatLatency), 1
	case isa.ClassVector:
		occ = ceilDiv(vl, c.VectorThroughput())
		if in.Op == isa.OpVREDSUM || in.Op == isa.OpVREDMAX {
			// Tree reduction: log2(lanes) extra stages.
			return int64(c.VectorLatency) + occ - 1 + int64(log2(c.LanesPerUnit)+log2(c.NumVectorUnits)), occ
		}
		if in.Op == isa.OpVDIV {
			return int64(c.VectorLatency)*4 + occ - 1, occ * 4
		}
		return int64(c.VectorLatency) + occ - 1, occ
	case isa.ClassVectorMem:
		occ = ceilDiv(vl, c.VectorThroughput())
		if in.Op == isa.OpVLSE32 || in.Op == isa.OpVSSE32 {
			occ *= 2 // strided access halves scratchpad throughput
		}
		return int64(c.MemLatency) + occ - 1, occ
	case isa.ClassSFU:
		// SFU has a quarter of the vector ALU throughput.
		occ = ceilDiv(vl*4, c.VectorThroughput())
		return int64(c.SFULatency) + occ - 1, occ
	case isa.ClassDMA:
		// In kernel-timing mode DMAs are ignored (§3.8): the Gem5 analog
		// measures only the deterministic compute latency; DMA time is
		// modelled online by TOGSim.
		return 1, 1
	default:
		return 1, 1
	}
}

func (p *Pipeline) readyTime(r isa.Reg) int64 {
	switch r.File {
	case isa.FileX:
		if r.Idx == 0 {
			return 0
		}
		return p.xReady[r.Idx]
	case isa.FileF:
		return p.fReady[r.Idx]
	default:
		return p.vReady[r.Idx]
	}
}

func (p *Pipeline) setReady(r isa.Reg, t int64) {
	switch r.File {
	case isa.FileX:
		if r.Idx != 0 {
			p.xReady[r.Idx] = t
		}
	case isa.FileF:
		p.fReady[r.Idx] = t
	default:
		p.vReady[r.Idx] = t
	}
}

func ceilDiv(a, b int) int64 {
	if b <= 0 {
		return int64(a)
	}
	return int64((a + b - 1) / b)
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
