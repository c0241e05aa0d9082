package nn

import (
	"fmt"

	"repro/internal/graph"
)

// GEMM builds the GEMM(N) kernel workload of §4.1: two square NxN
// matrices.
func GEMM(n int) *graph.Graph {
	g := graph.New(fmt.Sprintf("GEMM(%d)", n))
	x := g.Input("x", n, n)
	w := g.Param("w", n, n)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Name: "mm", Inputs: []int{x.ID, w.ID}, Shape: []int{n, n}})
	g.Outputs = []int{mm.ID}
	return g
}
