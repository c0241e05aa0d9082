// Quickstart: build a small model graph, compile it for the TPUv3-like
// NPU, simulate it with TLS, cross-check the cycle count against ILS, and
// validate the NPU's numeric output against the CPU reference — the whole
// PyTorchSim workflow (Fig. 1) in one file.
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/tensor"
)

func main() {
	// 1. Capture a computation graph (a linear layer with fused ReLU).
	const m, k, n = 256, 512, 256
	g := graph.New("quickstart")
	x := g.Input("x", m, k)
	w := g.Param("w", k, n)
	b := g.Param("b", n)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Name: "mm", Inputs: []int{x.ID, w.ID}, Shape: []int{m, n}})
	ba := g.Add(&graph.Node{Op: graph.OpBiasAdd, Name: "bias", Inputs: []int{mm.ID, b.ID}, Shape: []int{m, n}})
	out := g.Add(&graph.Node{Op: graph.OpReLU, Name: "relu", Inputs: []int{ba.ID}, Shape: []int{m, n}})
	g.Outputs = []int{out.ID}

	// 2. Compile for the target NPU: fusion folds bias+relu into the GEMM
	// kernel's epilogue; unique tile kernels are timed once on the core
	// timing model; the layer becomes a Tile Operation Graph.
	cfg := npu.TPUv3Config()
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	comp, err := sim.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d TOG(s), %d kernels timed, %.2f MB DRAM\n",
		len(comp.TOGs), sim.Compiler.MeasureCount(), float64(comp.TotalBytes)/1e6)

	// 3. Tile-Level Simulation: compute nodes use the offline latencies;
	// DMAs run against the cycle-accurate DRAM + NoC models.
	tls, err := sim.SimulateTLS(comp, core.SimpleNet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TLS: %s\n", tls)

	// 4. ILS cross-check: identical cycles, every instruction executed.
	ils, stats, err := sim.SimulateILS(comp, core.SimpleNet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ILS: %d cycles (%d instructions, %d kernel instances) in %v — TLS was %.1fx faster\n",
		ils.Cycles, stats.Instrs, stats.KernelRuns, ils.WallClock,
		float64(ils.WallClock)/float64(tls.WallClock))
	if ils.Cycles != tls.Cycles {
		log.Fatalf("cycle mismatch: TLS %d vs ILS %d", tls.Cycles, ils.Cycles)
	}

	// 5. Functional validation: run the compiled kernels on the functional
	// simulator and compare with the CPU reference executor.
	r := tensor.NewRNG(1)
	env := graph.NewEnv().
		Set("x", tensor.RandNormal(r, 0, 1, m, k)).
		Set("w", tensor.RandNormal(r, 0, 0.05, k, n)).
		Set("b", tensor.RandNormal(r, 0, 0.05, n))
	npuOut, err := compiler.RunFunctional(comp, g, env)
	if err != nil {
		log.Fatal(err)
	}
	cpuOut, err := graph.Execute(g, env)
	if err != nil {
		log.Fatal(err)
	}
	name := comp.OutputTensors[out.ID]
	if !tensor.AllClose(npuOut[name], cpuOut[out.ID], 1e-4, 1e-4) {
		log.Fatalf("NPU output differs from CPU (max diff %g)",
			tensor.MaxAbsDiff(npuOut[name], cpuOut[out.ID]))
	}
	fmt.Println("functional check: NPU output matches the CPU reference")

	// 6. Autotune: sweep tile-size candidates through TLS — the simulator
	// doubles as the compiler's cost model.
	opts, _, tuned, err := sim.AutoTune(g, nil, core.SimpleNet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("autotune: MaxMt=%d -> %d cycles (heuristic default: %d)\n",
		opts.MaxMt, tuned.Cycles, tls.Cycles)
}
