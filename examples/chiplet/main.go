// Chiplet: the §5.4 scenario as a library user would script it — place a
// model's tensors across a two-chiplet NPU's NUMA memory and measure how
// much the placement matters. Each chiplet owns half the HBM; traffic to
// the other chiplet crosses a narrow, higher-latency off-chip link.
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/togsim"
	"repro/internal/topo"
)

func main() {
	cfg := npu.TPUv3Config()
	cfg.Cores = 2
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())

	// One half-GEMM per core: y_i = x_i @ w_i.
	const m, k, n = 256, 1024, 512
	g := graph.New("halfgemm")
	x := g.Input("x", m, k)
	w := g.Param("w", k, n)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Inputs: []int{x.ID, w.ID}, Shape: []int{m, n}})
	g.Outputs = []int{mm.ID}
	comp, err := sim.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	outName := comp.OutputTensors[mm.ID]

	// The §5.4 machine: two single-core packages, each with half the HBM
	// channels, joined by the paper's narrow link.
	chipCfg, err := topo.Preset("pkg2", cfg.Mem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2 chiplets, %d-cycle link, %d B/cycle link bandwidth\n\n",
		chipCfg.LinkLatency, chipCfg.LinkBytesPerCycle)

	const xBytes, wBytes = m * k * 4, k * n * 4
	place := func(core, xCh, wCh, oCh int) *togsim.Job {
		return &togsim.Job{
			Name: fmt.Sprintf("core%d", core),
			TOGs: comp.TOGs,
			Bases: fill(len(comp.TOGs), map[string]uint64{
				"x":     chipCfg.PackageBase(xCh) + uint64(core)*(xBytes+wBytes+4096),
				"w":     chipCfg.PackageBase(wCh) + uint64(core)*(xBytes+wBytes+4096) + xBytes,
				outName: chipCfg.PackageBase(oCh) + 1<<26 + uint64(core)*(m*n*4+4096),
			}),
			Core: core,
			Src:  core,
		}
	}

	for _, pl := range []struct {
		name string
		jobs []*togsim.Job
	}{
		{"all-local (core i <- chiplet i)", []*togsim.Job{place(0, 0, 0, 0), place(1, 1, 1, 1)}},
		{"weights remote", []*togsim.Job{place(0, 0, 1, 0), place(1, 1, 0, 1)}},
		{"everything remote", []*togsim.Job{place(0, 1, 1, 1), place(1, 0, 0, 0)}},
	} {
		in, err := core.NewStack(cfg, togsim.SimpleNet, dram.FRFCFS, chipCfg).Run(pl.jobs)
		if err != nil {
			log.Fatal(err)
		}
		fab := in.Topo
		local := float64(fab.LocalBytes) / float64(fab.LocalBytes+fab.RemoteBytes)
		fmt.Printf("%-34s %8d cycles, %5.1f%% traffic stayed on-chiplet\n",
			pl.name, in.Res.Cycles, 100*local)
	}
}

func fill(n int, m map[string]uint64) []map[string]uint64 {
	out := make([]map[string]uint64, n)
	for i := range out {
		out[i] = m
	}
	return out
}
