package timingsim

import (
	"sync"

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
	return measure(funcsim.NewCore(cfg, npu.NewPagedMem()), p, setup)
}

// Meter measures kernels exactly as MeasureKernel does, but recycles its
// measuring cores: a core that finished one kernel is Reset and measures
// the next, instead of every kernel allocating (and zeroing) a fresh
// scratchpad. Reset leaves a core equal to a new one, so a Meter's Result
// is always the one MeasureKernel returns. It is safe for concurrent use;
// the zero value is ready. A Meter holds at most one idle core per
// concurrent caller, for as long as the Meter itself is reachable, so
// scope it to one batch of measurements (the compiler's measure pass).
type Meter struct {
	mu   sync.Mutex
	free map[npu.CoreConfig][]*funcsim.Core
}

// Measure is MeasureKernel on a recycled core.
func (m *Meter) Measure(cfg npu.CoreConfig, p *isa.Program, setup func(*funcsim.Core)) (Result, error) {
	core := m.get(cfg)
	res, err := measure(core, p, setup)
	if core.Cfg == cfg { // a setup that changed the config spoils the core
		m.put(core)
	}
	return res, err
}

// get returns an idle core for cfg, reset to NewCore's state, or a new one.
func (m *Meter) get(cfg npu.CoreConfig) *funcsim.Core {
	m.mu.Lock()
	cores := m.free[cfg]
	var core *funcsim.Core
	if n := len(cores); n > 0 {
		core = cores[n-1]
		m.free[cfg] = cores[:n-1]
	}
	m.mu.Unlock()
	if core == nil {
		return funcsim.NewCore(cfg, npu.NewPagedMem())
	}
	core.Reset(npu.NewPagedMem())
	return core
}

func (m *Meter) put(core *funcsim.Core) {
	m.mu.Lock()
	if m.free == nil {
		m.free = map[npu.CoreConfig][]*funcsim.Core{}
	}
	m.free[core.Cfg] = append(m.free[core.Cfg], core)
	m.mu.Unlock()
}

func measure(core *funcsim.Core, p *isa.Program, setup func(*funcsim.Core)) (Result, error) {
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
