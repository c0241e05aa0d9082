package exp

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/tensor"
)

// Fig8aRow compares DMA decomposition strategies on one GEMM (§5.3).
type Fig8aRow struct {
	Workload                string
	Coarse, Fine, Selective int64 // cycles
}

// Fig8aResult is the fine-grained-DMA study.
type Fig8aResult struct{ Rows []Fig8aRow }

func (r *Fig8aResult) String() string {
	t := &Table{Header: []string{"workload", "CG-DMA", "FG-DMA", "SFG-DMA", "FG/CG", "SFG/CG"}}
	for _, row := range r.Rows {
		t.Add(row.Workload,
			fmt.Sprintf("%d", row.Coarse), fmt.Sprintf("%d", row.Fine), fmt.Sprintf("%d", row.Selective),
			Speedup(float64(row.Coarse)/float64(row.Fine)),
			Speedup(float64(row.Coarse)/float64(row.Selective)))
	}
	return "Fig. 8a — DMA-compute overlap from fine-grained DMA (speedup over coarse)\n" + t.String()
}

// Fig8a sweeps GEMMs across the three DMA modes.
func Fig8a(cfg npu.Config, quick bool) (*Fig8aResult, error) {
	sizes := []int{512, 1024, 2048}
	if quick {
		sizes = []int{256, 512}
	}
	res := &Fig8aResult{}
	for _, n := range sizes {
		row := Fig8aRow{Workload: fmt.Sprintf("GEMM(%d)", n)}
		for _, mode := range []compiler.DMAMode{compiler.DMACoarse, compiler.DMAFine, compiler.DMASelective} {
			opts := compiler.DefaultOptions()
			opts.DMA = mode
			sim := core.NewSimulator(cfg, opts)
			comp, err := sim.Compile(nn.GEMM(n))
			if err != nil {
				return nil, err
			}
			rep, err := sim.SimulateTLS(comp, core.SimpleNet)
			if err != nil {
				return nil, err
			}
			switch mode {
			case compiler.DMACoarse:
				row.Coarse = rep.Cycles
			case compiler.DMAFine:
				row.Fine = rep.Cycles
			default:
				row.Selective = rep.Cycles
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ConvLayoutRow compares one workload's cycles without and with the conv
// layout optimization (§5.3).
type ConvLayoutRow struct {
	Workload               string
	Unoptimized, Optimized int64
}

// ConvLayoutResult is one conv-tiling study: Fig. 8b or Fig. 8c.
type ConvLayoutResult struct {
	Title string
	Rows  []ConvLayoutRow
}

func (r *ConvLayoutResult) String() string {
	t := &Table{Header: []string{"workload", "HWNC(unopt)", "optimized", "speedup"}}
	for _, row := range r.Rows {
		t.Add(row.Workload, fmt.Sprintf("%d", row.Unoptimized), fmt.Sprintf("%d", row.Optimized),
			Speedup(float64(row.Unoptimized)/float64(row.Optimized)))
	}
	return r.Title + "\n" + t.String()
}

// convLayoutStudy simulates each workload with and without the conv layout
// optimization.
func convLayoutStudy(cfg npu.Config, title string, workloads []Workload) (*ConvLayoutResult, error) {
	res := &ConvLayoutResult{Title: title}
	for _, w := range workloads {
		row := ConvLayoutRow{Workload: w.Name}
		for _, opt := range []bool{false, true} {
			opts := compiler.DefaultOptions()
			opts.ConvLayoutOpt = opt
			sim := core.NewSimulator(cfg, opts)
			comp, err := sim.Compile(w.Graph)
			if err != nil {
				return nil, err
			}
			rep, err := sim.SimulateTLS(comp, core.SimpleNet)
			if err != nil {
				return nil, err
			}
			if opt {
				row.Optimized = rep.Cycles
			} else {
				row.Unoptimized = rep.Cycles
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig8b runs ResNets at batch 1 with and without the conv layout
// optimization.
func Fig8b(cfg npu.Config, quick bool) (*ConvLayoutResult, error) {
	var models []Workload
	if quick {
		rc := nn.ResNet18Config(1)
		rc.InputHW = 64
		models = []Workload{{Name: "ResNet-18(64px)", Graph: nn.ResNet(rc).Graph}}
	} else {
		models = []Workload{
			{Name: "ResNet-18", Graph: nn.ResNet(nn.ResNet18Config(1)).Graph},
			{Name: "ResNet-50", Graph: nn.ResNet(nn.ResNet50Config(1)).Graph},
		}
	}
	return convLayoutStudy(cfg, "Fig. 8b — conv tiling optimizations, batch size 1", models)
}

// Fig8c runs small-C convolutions at batch 1 and a larger batch, with and
// without the layout optimization (HNWC merges the x-taps into the SA
// panel).
func Fig8c(cfg npu.Config, quick bool) (*ConvLayoutResult, error) {
	bigBatch := 64
	hw := 56
	if quick {
		bigBatch = 8
		hw = 28
	}
	var convs []Workload
	for _, s := range []struct{ c, batch int }{{4, 1}, {8, 1}, {4, bigBatch}, {8, bigBatch}} {
		cs := tensor.ConvShape{N: s.batch, C: s.c, H: hw, W: hw, K: 64, KH: 3, KW: 3, Stride: 1, Pad: 1}
		name := fmt.Sprintf("CONV(C=%d,b=%d)", s.c, s.batch)
		convs = append(convs, Workload{Name: name, Graph: ConvGraph(name, cs)})
	}
	return convLayoutStudy(cfg, "Fig. 8c — conv tiling for small input-channel counts", convs)
}
