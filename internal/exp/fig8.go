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
			comp, err := sim.Compile(GEMMGraph(n))
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

// Fig8bRow compares conv layout optimization on a full model (§5.3).
type Fig8bRow struct {
	Workload               string
	Unoptimized, Optimized int64
}

// Fig8bResult is the batch-1 conv-tiling study.
type Fig8bResult struct{ Rows []Fig8bRow }

func (r *Fig8bResult) String() string {
	t := &Table{Header: []string{"workload", "HWNC(unopt)", "optimized", "speedup"}}
	for _, row := range r.Rows {
		t.Add(row.Workload, fmt.Sprintf("%d", row.Unoptimized), fmt.Sprintf("%d", row.Optimized),
			Speedup(float64(row.Unoptimized)/float64(row.Optimized)))
	}
	return "Fig. 8b — conv tiling optimizations, batch size 1\n" + t.String()
}

// Fig8b runs ResNets at batch 1 with and without the conv layout
// optimization.
func Fig8b(cfg npu.Config, quick bool) (*Fig8bResult, error) {
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
	res := &Fig8bResult{}
	for _, m := range models {
		row := Fig8bRow{Workload: m.Name}
		for _, opt := range []bool{false, true} {
			opts := compiler.DefaultOptions()
			opts.ConvLayoutOpt = opt
			sim := core.NewSimulator(cfg, opts)
			comp, err := sim.Compile(m.Graph)
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

// Fig8cRow compares layouts for a small-input-channel conv.
type Fig8cRow struct {
	Workload               string
	Unoptimized, Optimized int64
}

// Fig8cResult is the small-C conv study.
type Fig8cResult struct{ Rows []Fig8cRow }

func (r *Fig8cResult) String() string {
	t := &Table{Header: []string{"workload", "HWNC(unopt)", "optimized", "speedup"}}
	for _, row := range r.Rows {
		t.Add(row.Workload, fmt.Sprintf("%d", row.Unoptimized), fmt.Sprintf("%d", row.Optimized),
			Speedup(float64(row.Unoptimized)/float64(row.Optimized)))
	}
	return "Fig. 8c — conv tiling for small input-channel counts\n" + t.String()
}

// Fig8c runs small-C convolutions at batch 1 and a larger batch, with and
// without the layout optimization (HNWC merges the x-taps into the SA
// panel).
func Fig8c(cfg npu.Config, quick bool) (*Fig8cResult, error) {
	bigBatch := 64
	hw := 56
	if quick {
		bigBatch = 8
		hw = 28
	}
	shapes := []struct {
		c, batch int
	}{
		{4, 1}, {8, 1}, {4, bigBatch}, {8, bigBatch},
	}
	res := &Fig8cResult{}
	for _, s := range shapes {
		cs := tensor.ConvShape{N: s.batch, C: s.c, H: hw, W: hw, K: 64, KH: 3, KW: 3, Stride: 1, Pad: 1}
		name := fmt.Sprintf("CONV(C=%d,b=%d)", s.c, s.batch)
		row := Fig8cRow{Workload: name}
		for _, opt := range []bool{false, true} {
			opts := compiler.DefaultOptions()
			opts.ConvLayoutOpt = opt
			sim := core.NewSimulator(cfg, opts)
			comp, err := sim.Compile(ConvGraph(name, cs))
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
