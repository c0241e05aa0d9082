package exp

import (
	"fmt"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// Fig9Result reports the chiplet weight-mapping study (§5.4): runtime of a
// partitioned GEMM under different tensor-to-chiplet mappings, normalized
// to a monolithic NPU.
type Fig9Result struct {
	Monolithic int64
	Best       int64
	Random     int64
	Worst      int64
	// Locality fractions observed by the fabric.
	BestLocal, RandomLocal, WorstLocal float64
}

func (r *Fig9Result) String() string {
	t := &Table{Header: []string{"mapping", "cycles", "normalized", "local traffic"}}
	norm := func(v int64) string { return fmt.Sprintf("%.2fx", float64(v)/float64(r.Monolithic)) }
	t.Add("monolithic", fmt.Sprintf("%d", r.Monolithic), "1.00x", "100%")
	t.Add("best", fmt.Sprintf("%d", r.Best), norm(r.Best), Pct(r.BestLocal))
	t.Add("random", fmt.Sprintf("%d", r.Random), norm(r.Random), Pct(r.RandomLocal))
	t.Add("worst", fmt.Sprintf("%d", r.Worst), norm(r.Worst), Pct(r.WorstLocal))
	var b strings.Builder
	b.WriteString("Fig. 9 — chiplet NPU weight-mapping (2 chiplets, narrow off-chip link)\n")
	b.WriteString(t.String())
	return b.String()
}

// Fig9 partitions an NxN GEMM into four quarter products O_ij = I_i @ W_j
// and maps them to a two-chiplet NPU under best / random / worst placements
// (§5.4), plus the monolithic baseline.
func Fig9(cfg npu.Config, quick bool) (*Fig9Result, error) {
	n := 1024
	if quick {
		n = 512
	}
	half := n / 2

	// Compile one quarter GEMM: (half x n) @ (n x half).
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	quarter := quarterGEMMGraph(half, n)
	comp, err := sim.Compile(quarter)
	if err != nil {
		return nil, err
	}
	outName := comp.OutputTensors[quarter.Outputs[0]]

	// The §5.4 machine expressed in the unified topology layer: the "pkg2"
	// preset splits the monolithic HBM stack across two single-core
	// packages joined by the paper's narrow link.
	topoCfg, err := topo.Preset("pkg2", cfg.Mem)
	if err != nil {
		return nil, err
	}

	// Tensor placement helper: bases for quarter (i, j) with the output on
	// package `outCh`.
	iBytes := uint64(half) * uint64(n) * 4
	wBytes := uint64(n) * uint64(half) * 4
	bases := func(i, j, outCh, idx int) map[string]uint64 {
		return map[string]uint64{
			"x":     topoCfg.PackageBase(i),
			"w":     topoCfg.PackageBase(j) + ((iBytes + 4095) &^ 4095),
			outName: topoCfg.PackageBase(outCh) + ((iBytes+wBytes+8191)&^4095 + uint64(idx)*uint64(half)*uint64(half)*4),
		}
	}
	mkJob := func(name string, coreID, i, j, outCh, idx int) *togsim.Job {
		return &togsim.Job{
			Name:  name,
			TOGs:  comp.TOGs,
			Bases: fillBases(len(comp.TOGs), bases(i, j, outCh, idx)),
			Core:  coreID,
			Src:   coreID,
		}
	}

	type mapping struct {
		name string
		jobs func() []*togsim.Job
	}
	mappings := []mapping{
		{"best", func() []*togsim.Job {
			// Core c computes O_c0, O_c1: inputs local, outputs local.
			return []*togsim.Job{
				mkJob("q00", 0, 0, 0, 0, 0), mkJob("q01", 0, 0, 1, 0, 1),
				mkJob("q10", 1, 1, 0, 1, 2), mkJob("q11", 1, 1, 1, 1, 3),
			}
		}},
		{"random", func() []*togsim.Job {
			// Half local, half remote.
			return []*togsim.Job{
				mkJob("q00", 0, 0, 0, 1, 0), mkJob("q11", 0, 1, 1, 0, 1),
				mkJob("q01", 1, 0, 1, 1, 2), mkJob("q10", 1, 1, 0, 0, 3),
			}
		}},
		{"worst", func() []*togsim.Job {
			// Core c works on the other chiplet's partitions and writes
			// remotely.
			return []*togsim.Job{
				mkJob("q10", 0, 1, 0, 1, 0), mkJob("q11", 0, 1, 1, 1, 1),
				mkJob("q00", 1, 0, 0, 0, 2), mkJob("q01", 1, 0, 1, 0, 3),
			}
		}},
	}

	res := &Fig9Result{}
	// Monolithic baseline: standard 2-core engine, full-bandwidth memory.
	monoCfg := cfg
	monoCfg.Cores = 2
	mono := core.NewStack(monoCfg, togsim.SimpleNet, dram.FRFCFS, topo.Config{})
	monoJobs := []*togsim.Job{
		{Name: "q00", TOGs: comp.TOGs, Bases: fillBases(len(comp.TOGs), map[string]uint64{"x": 0, "w": iBytes, outName: iBytes + wBytes}), Core: 0, Src: 0},
		{Name: "q01", TOGs: comp.TOGs, Bases: fillBases(len(comp.TOGs), map[string]uint64{"x": 0, "w": iBytes, outName: iBytes + wBytes + 1<<24}), Core: 0, Src: 0},
		{Name: "q10", TOGs: comp.TOGs, Bases: fillBases(len(comp.TOGs), map[string]uint64{"x": 1 << 26, "w": iBytes, outName: iBytes + wBytes + 2<<24}), Core: 1, Src: 1},
		{Name: "q11", TOGs: comp.TOGs, Bases: fillBases(len(comp.TOGs), map[string]uint64{"x": 1 << 26, "w": iBytes, outName: iBytes + wBytes + 3<<24}), Core: 1, Src: 1},
	}
	monoRes, _, err := mono.Run(monoJobs)
	if err != nil {
		return nil, err
	}
	res.Monolithic = monoRes.Cycles

	for _, m := range mappings {
		r, in, err := core.NewStack(cfg, togsim.SimpleNet, dram.FRFCFS, topoCfg).Run(m.jobs())
		if err != nil {
			return nil, fmt.Errorf("fig9: mapping %s: %w", m.name, err)
		}
		fab := in.Topo
		localFrac := float64(fab.LocalBytes) / float64(fab.LocalBytes+fab.RemoteBytes)
		switch m.name {
		case "best":
			res.Best, res.BestLocal = r.Cycles, localFrac
		case "random":
			res.Random, res.RandomLocal = r.Cycles, localFrac
		case "worst":
			res.Worst, res.WorstLocal = r.Cycles, localFrac
		}
	}
	return res, nil
}

// quarterGEMMGraph builds the (half x n) @ (n x half) quarter product.
func quarterGEMMGraph(half, n int) *graph.Graph {
	g := graph.New("quarter")
	x := g.Input("x", half, n)
	w := g.Param("w", n, half)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Inputs: []int{x.ID, w.ID}, Shape: []int{half, half}})
	g.Outputs = []int{mm.ID}
	return g
}

func fillBases(n int, m map[string]uint64) []map[string]uint64 {
	out := make([]map[string]uint64, n)
	for i := range out {
		out[i] = m
	}
	return out
}
