// Package exp implements the paper's evaluation (§4-§5): one driver per
// table/figure that builds the workloads, runs the simulators, and reports
// the rows/series the paper reports. The benchmark harness (bench_test.go)
// and the experiments command (cmd/experiments) both call these drivers.
package exp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GEMMRectGraph builds an MxKxN GEMM workload.
func GEMMRectGraph(m, k, n int) *graph.Graph {
	g := graph.New(fmt.Sprintf("GEMM(%dx%dx%d)", m, k, n))
	x := g.Input("x", m, k)
	w := g.Param("w", k, n)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Name: "mm", Inputs: []int{x.ID, w.ID}, Shape: []int{m, n}})
	g.Outputs = []int{mm.ID}
	return g
}

// GEMMGraph is nn.GEMM, kept for the benchmark module's callers.
func GEMMGraph(n int) *graph.Graph { return nn.GEMM(n) }

// ConvSpec returns CONV0-3 of §4.1: 3x3 filters; output channels 64, 128,
// 256, 512; feature maps 56, 28, 14, 7; matching input/output channels.
func ConvSpec(idx, batch int) tensor.ConvShape {
	channels := []int{64, 128, 256, 512}
	fmaps := []int{56, 28, 14, 7}
	c := channels[idx]
	h := fmaps[idx]
	return tensor.ConvShape{N: batch, C: c, H: h, W: h, K: c, KH: 3, KW: 3, Stride: 1, Pad: 1}
}

// ConvGraph builds a standalone convolution workload.
func ConvGraph(name string, cs tensor.ConvShape) *graph.Graph {
	g := graph.New(name)
	x := g.Input("x", cs.N, cs.C, cs.H, cs.W)
	w := g.Param("w", cs.K, cs.C, cs.KH, cs.KW)
	cv := g.Add(&graph.Node{Op: graph.OpConv2D, Name: "conv", Inputs: []int{x.ID, w.ID},
		Conv: cs, Shape: []int{cs.N, cs.K, cs.OutH(), cs.OutW()}})
	g.Outputs = []int{cv.ID}
	return g
}

// LayerNormGraph builds the LN kernel workload (BERT-shaped rows).
func LayerNormGraph(rows, cols int) *graph.Graph {
	g := graph.New(fmt.Sprintf("LN(%dx%d)", rows, cols))
	x := g.Input("x", rows, cols)
	gam := g.Param("gamma", cols)
	bet := g.Param("beta", cols)
	ln := g.Add(&graph.Node{Op: graph.OpLayerNorm, Name: "ln", Inputs: []int{x.ID, gam.ID, bet.ID}, Shape: []int{rows, cols}})
	g.Outputs = []int{ln.ID}
	return g
}

// SoftmaxGraph builds the softmax kernel workload (attention-shaped rows).
func SoftmaxGraph(rows, cols int) *graph.Graph {
	g := graph.New(fmt.Sprintf("Softmax(%dx%d)", rows, cols))
	x := g.Input("x", rows, cols)
	sm := g.Add(&graph.Node{Op: graph.OpSoftmax, Name: "sm", Inputs: []int{x.ID}, Shape: []int{rows, cols}})
	g.Outputs = []int{sm.ID}
	return g
}

// Workload names a graph for the evaluation tables.
type Workload struct {
	Name  string
	Graph *graph.Graph
	// EndToEnd marks full models (baselines cannot express their vector
	// layers, so their error there is structural).
	EndToEnd bool
}

// KernelWorkloads returns the §4.1 kernel set. Quick mode caps GEMM at 512
// and uses CONV0/CONV2 only.
func KernelWorkloads(quick bool) []Workload {
	var out []Workload
	sizes := []int{128, 256, 512, 1024, 2048}
	if quick {
		sizes = []int{128, 256, 512}
	}
	for _, n := range sizes {
		out = append(out, Workload{Name: fmt.Sprintf("GEMM(%d)", n), Graph: nn.GEMM(n)})
	}
	convs := []int{0, 1, 2, 3}
	if quick {
		convs = []int{0, 2}
	}
	for _, i := range convs {
		cs := ConvSpec(i, 1)
		out = append(out, Workload{Name: fmt.Sprintf("CONV%d", i), Graph: ConvGraph(fmt.Sprintf("CONV%d", i), cs)})
	}
	out = append(out,
		Workload{Name: "LayerNorm", Graph: LayerNormGraph(512, 768)},
		Workload{Name: "Softmax", Graph: SoftmaxGraph(512, 512)},
	)
	return out
}

// ModelWorkloads returns the end-to-end models of §4.1. Quick mode uses a
// reduced-resolution ResNet-18 and a shortened BERT-base.
func ModelWorkloads(quick bool) []Workload {
	if quick {
		bert := nn.BERTBaseConfig(1, 128)
		bert.Layers = 4
		rc := nn.ResNet18Config(1)
		rc.InputHW = 112
		return []Workload{
			{Name: "ResNet-18(112px)", Graph: nn.ResNet(rc).Graph, EndToEnd: true},
			{Name: "BERT-base(4L,128)", Graph: nn.BERT(bert).Graph, EndToEnd: true},
		}
	}
	return []Workload{
		{Name: "ResNet-18", Graph: nn.ResNet(nn.ResNet18Config(1)).Graph, EndToEnd: true},
		{Name: "ResNet-50", Graph: nn.ResNet(nn.ResNet50Config(1)).Graph, EndToEnd: true},
		{Name: "BERT-base", Graph: nn.BERT(nn.BERTBaseConfig(1, 512)).Graph, EndToEnd: true},
		{Name: "BERT-large", Graph: nn.BERT(nn.BERTLargeConfig(1, 512)).Graph, EndToEnd: true},
	}
}
