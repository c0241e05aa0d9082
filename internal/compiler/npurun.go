package compiler

import (
	"fmt"

	"repro/internal/funcsim"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/tensor"
	"repro/internal/tog"
)

// RunFunctional executes a compiled model on the functional NPU simulator
// (extended-Spike role, Table 2: accuracy validation / full training):
// input and parameter tensors from env are written to their allocated DRAM
// addresses, every TOG is walked in order — DMAs move real data between
// DRAM and the scratchpad, compute nodes run their machine-code kernels —
// and the graph outputs are read back. Compilations containing timing-only
// layers (convolutions) are rejected; see DESIGN.md.
func RunFunctional(c *Compiled, g *graph.Graph, env *graph.Env) (map[string]*tensor.Tensor, error) {
	if !c.FunctionalOK {
		return nil, fmt.Errorf("compiler: %q contains timing-only layers (convolutions); functional execution unsupported", c.Name)
	}
	dram := npu.NewPagedMem()
	// Bind every env tensor that has an allocation.
	for name, t := range env.Values {
		base, ok := c.Bases[name]
		if !ok {
			continue
		}
		dram.StoreSpan(base, t.Data)
	}
	core := funcsim.NewCore(c.cfg.Core, dram)
	for _, tg := range c.TOGs {
		if err := runTOG(c, core, dram, tg); err != nil {
			return nil, fmt.Errorf("compiler: functional run of %q: %w", tg.Name, err)
		}
	}
	// Read back graph outputs.
	out := map[string]*tensor.Tensor{}
	for nodeID, name := range c.OutputTensors {
		shape := append([]int(nil), g.Nodes[nodeID].Shape...)
		n := 1
		for _, d := range shape {
			n *= d
		}
		out[name] = tensor.FromSlice(dram.ReadFloats(c.Bases[name], n), shape...)
	}
	return out, nil
}

// runTOG walks one TOG, executing its DMAs and kernels.
func runTOG(c *Compiled, core *funcsim.Core, dram *npu.PagedMem, g *tog.TOG) error {
	return g.Walk(func(n *tog.Node, vars map[string]int64) error {
		switch n.Kind {
		case tog.LoadDMA, tog.StoreDMA:
			base, ok := c.Bases[n.Tensor]
			if !ok {
				return fmt.Errorf("unbound tensor %q", n.Tensor)
			}
			off, err := n.Off.Eval(vars)
			if err != nil {
				return err
			}
			addr := base + uint64(off)
			spad := isa.SpadBase + uint64(n.SpadOff)
			if n.Kind == tog.LoadDMA {
				return n.Desc.RunIn(dram, core.Mem.Spad, addr, spad)
			}
			return n.Desc.RunOut(dram, core.Mem.Spad, addr, spad)
		case tog.WaitDMA:
			// Functional DMAs are synchronous.
		case tog.AllReduce, tog.AllGather, tog.ReduceScatter, tog.CollEnd:
			// Collective schedules reference another rank's buffers; they
			// only make sense under multi-rank placement. Compiled graphs
			// containing them set FunctionalOK=false, so reaching one here
			// means the caller skipped that gate.
			return fmt.Errorf("collective %s cannot execute functionally (use graph.ExecuteSharded)", n.Kind)
		case tog.Compute:
			prog, ok := c.Kernels[n.Kernel]
			if !ok {
				return fmt.Errorf("compute node references unknown kernel %q", n.Kernel)
			}
			_, err := core.Run(prog)
			return err
		}
		return nil
	})
}
