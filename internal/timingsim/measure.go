package timingsim

import (
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/npu"
)

// Result summarizes one kernel timing measurement.
type Result struct {
	Cycles      int64
	Instrs      int64
	StallRAW    int64
	StallUnit   int64
	ClassBusy   [8]int64
	ClassOps    [8]int64
	DMABytesIn  int64
	DMABytesOut int64
}

// MeasureKernel runs a compiled kernel through the functional simulator with
// the timing pipeline attached, returning the deterministic compute cycle
// count (this is the offline ILS pass that produces TOG compute-node
// latencies, Table 2: "TOG generation"). setup, when non-nil, initializes
// core state (e.g. writes operand tensors into DRAM) before execution.
func MeasureKernel(cfg npu.CoreConfig, p *isa.Program, setup func(*funcsim.Core)) (Result, error) {
	core := funcsim.NewCore(cfg, npu.NewPagedMem())
	if setup != nil {
		setup(core)
	}
	pipe := NewPipeline(core.Cfg)
	core.Trace = pipe.Consume
	n, err := core.Run(p)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Cycles:      pipe.Cycles(),
		Instrs:      n,
		StallRAW:    pipe.StallRAW,
		StallUnit:   pipe.StallUnit,
		ClassBusy:   pipe.ClassBusy,
		ClassOps:    pipe.ClassOps,
		DMABytesIn:  core.DMABytesIn,
		DMABytesOut: core.DMABytesOut,
	}, nil
}
