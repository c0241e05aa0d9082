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
// expands every TOG's loops and runs each dynamic kernel instance through
// the functional simulator with a fresh core timing pipeline attached,
// instruction by instruction. It runs no engine and reports no cycle
// count: core.Simulator.SimulateILS pairs it with the same engine run as
// TLS, which supplies the cycles. The pipelines' cycles are computed but
// not yet compared with or fed into that count.
func RunILS(c *Compiled, cfg npu.CoreConfig) (ILSResult, error) {
	var res ILSResult
	core := funcsim.NewCore(cfg, npu.NewPagedMem())
	for _, g := range c.TOGs {
		if err := walkComputes(g, func(kernelID string) error {
			prog, ok := c.Kernels[kernelID]
			if !ok {
				return fmt.Errorf("compiler: ILS: unknown kernel %q", kernelID)
			}
			pipe := timingsim.NewPipeline(cfg)
			core.Trace = pipe.Consume
			n, err := core.Run(prog)
			core.Trace = nil
			if err != nil {
				return err
			}
			res.Instrs += n
			res.KernelRuns++
			return nil
		}); err != nil {
			return res, err
		}
	}
	return res, nil
}

// walkComputes expands a TOG's loops and invokes f for every dynamic
// compute-node instance.
func walkComputes(g *tog.TOG, f func(kernelID string) error) error {
	var walk func(from, to int) error
	walk = func(from, to int) error {
		for i := from; i < to; i++ {
			n := &g.Nodes[i]
			switch n.Kind {
			case tog.LoopBegin:
				end, err := matchEnd(g, i)
				if err != nil {
					return err
				}
				for v := n.Init; v < n.Limit; v += n.Step {
					if err := walk(i+1, end); err != nil {
						return err
					}
				}
				i = end
			case tog.Compute:
				if n.Kernel != "" {
					if err := f(n.Kernel); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	return walk(0, len(g.Nodes))
}

func matchEnd(g *tog.TOG, begin int) (int, error) {
	depth := 0
	for j := begin; j < len(g.Nodes); j++ {
		switch g.Nodes[j].Kind {
		case tog.LoopBegin:
			depth++
		case tog.LoopEnd:
			depth--
			if depth == 0 {
				return j, nil
			}
		}
	}
	return 0, fmt.Errorf("compiler: unmatched loop at node %d", begin)
}
