package core

import (
	"testing"
	"testing/quick"

	"repro/internal/compiler"
	"repro/internal/graph"
	"repro/internal/npu"
)

// The §3.8 determinism property, checked across shapes: for any
// (rectangular, non-aligned) GEMM, ILS and TLS report identical cycles.
func TestILSMatchesTLSCyclesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		m := 8 + int(seed%29)     // deliberately not multiples of the tile
		k := 8 + int(seed/7%23)   // or vector sizes, so edge tiles appear
		n := 8 + int(seed/131%31) //
		g := graph.New("gemm")
		x := g.Input("x", m, k)
		w := g.Param("w", k, n)
		mm := g.Add(&graph.Node{Op: graph.OpMatMul, Inputs: []int{x.ID, w.ID}, Shape: []int{m, n}})
		g.Outputs = []int{mm.ID}

		sim := NewSimulator(npu.SmallConfig(), compiler.DefaultOptions())
		comp, err := sim.Compile(g)
		if err != nil {
			t.Logf("compile (%d,%d,%d): %v", m, k, n, err)
			return false
		}
		tls, err := sim.SimulateTLS(comp, SimpleNet)
		if err != nil {
			return false
		}
		ils, _, err := sim.SimulateILS(comp, SimpleNet)
		if err != nil {
			return false
		}
		if ils.Cycles != tls.Cycles {
			t.Logf("GEMM(%d,%d,%d): ILS %d != TLS %d", m, k, n, ils.Cycles, tls.Cycles)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
