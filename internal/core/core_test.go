package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/tensor"
	"repro/internal/togsim"
)

func gemmGraph(n int) *graph.Graph {
	g := graph.New("gemm")
	x := g.Input("x", n, n)
	w := g.Param("w", n, n)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Inputs: []int{x.ID, w.ID}, Shape: []int{n, n}})
	g.Outputs = []int{mm.ID}
	return g
}

func TestSimulatorEndToEnd(t *testing.T) {
	sim := NewSimulator(npu.SmallConfig(), compiler.DefaultOptions())
	comp, err := sim.Compile(gemmGraph(32))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.SimulateTLS(comp, SimpleNet)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles <= 0 || rep.Time() <= 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "cycles") {
		t.Fatal("String() should mention cycles")
	}
}

func TestSimulatorILSMatchesTLSCycles(t *testing.T) {
	// The headline TLS claim (§3.8): tile latencies are deterministic, so
	// TLS reports the same cycle count as ILS while running much faster.
	sim := NewSimulator(npu.SmallConfig(), compiler.DefaultOptions())
	comp, err := sim.Compile(gemmGraph(32))
	if err != nil {
		t.Fatal(err)
	}
	tls, err := sim.SimulateTLS(comp, SimpleNet)
	if err != nil {
		t.Fatal(err)
	}
	ilsRep, ils, err := sim.SimulateILS(comp, SimpleNet)
	if err != nil {
		t.Fatal(err)
	}
	if ilsRep.Cycles != tls.Cycles {
		t.Fatalf("ILS cycles %d != TLS cycles %d", ilsRep.Cycles, tls.Cycles)
	}
	if ils.Instrs == 0 || ils.KernelRuns == 0 {
		t.Fatal("ILS must execute instructions")
	}
}

// TestSimulateILSHonoursMaxCycles: ILS runs on the simulator's own stack,
// so the simulator's cycle bound applies to it as it does to TLS.
func TestSimulateILSHonoursMaxCycles(t *testing.T) {
	sim := NewSimulator(npu.SmallConfig(), compiler.DefaultOptions())
	comp, err := sim.Compile(gemmGraph(32))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sim.SimulateILS(comp, SimpleNet)
	if err != nil {
		t.Fatal(err)
	}
	sim.MaxCycles = rep.Cycles / 2
	var dl *togsim.DeadlockError
	if _, _, err := sim.SimulateILS(comp, SimpleNet); !errors.As(err, &dl) {
		t.Fatalf("MaxCycles=%d on a %d-cycle ILS run: want a DeadlockError, got %v", sim.MaxCycles, rep.Cycles, err)
	}
}

func TestSimulatorFunctional(t *testing.T) {
	sim := NewSimulator(npu.SmallConfig(), compiler.DefaultOptions())
	g := gemmGraph(16)
	comp, err := sim.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(1)
	env := graph.NewEnv().
		Set("x", tensor.RandNormal(r, 0, 1, 16, 16)).
		Set("w", tensor.RandNormal(r, 0, 1, 16, 16))
	out, err := compiler.RunFunctional(comp, g, env)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := graph.Execute(g, env)
	name := comp.OutputTensors[g.Outputs[0]]
	if !tensor.AllClose(out[name], cpu[g.Outputs[0]], 1e-4, 1e-4) {
		t.Fatal("functional result differs from CPU")
	}
}
