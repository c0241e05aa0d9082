package compiler

import (
	"fmt"

	"repro/internal/funcsim"
	"repro/internal/npu"
	"repro/internal/timingsim"
	"repro/internal/tog"
)

// ILSResult reports the per-instruction pass of an ILS run.
type ILSResult struct {
	Instrs     int64 // dynamic instructions executed one at a time
	KernelRuns int64 // dynamic kernel instances
}

// RunILS is the per-instruction pass of Instruction-Level Simulation: it
// walks every TOG (tog.Walk expands the loops) and runs each dynamic kernel instance through
// the functional simulator with a fresh core timing pipeline attached,
// instruction by instruction. It runs no engine and reports no cycle
// count: core.Simulator.SimulateILS pairs it with the same engine run as
// TLS, which supplies the cycles. The pipelines' cycles are computed but
// not yet compared with or fed into that count.
func RunILS(c *Compiled, cfg npu.CoreConfig) (ILSResult, error) {
	var res ILSResult
	core := funcsim.NewCore(cfg, npu.NewPagedMem())
	for _, g := range c.TOGs {
		if err := g.Walk(func(n *tog.Node, _ map[string]int64) error {
			if n.Kind != tog.Compute || n.Kernel == "" {
				return nil
			}
			prog, ok := c.Kernels[n.Kernel]
			if !ok {
				return fmt.Errorf("compiler: ILS: unknown kernel %q", n.Kernel)
			}
			pipe := timingsim.NewPipeline(cfg)
			core.Trace = pipe.Consume
			instrs, err := core.Run(prog)
			core.Trace = nil
			if err != nil {
				return err
			}
			res.Instrs += instrs
			res.KernelRuns++
			return nil
		}); err != nil {
			return res, err
		}
	}
	return res, nil
}
