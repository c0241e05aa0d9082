// Sparse heterogeneous NPU: the §5.1 scenario — a dense GEMM stream on a
// systolic-array core and a 95%-sparse SpMSpM stream on a Flexagon-style
// sparse core, sharing DRAM through the FR-FCFS controller. Shows how to
// build jobs for a custom core model (per-tile data-dependent latencies in
// the TOG's auxiliary table) and how to read fairness statistics.
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/npu"
	"repro/internal/sparse"
	"repro/internal/sparsecore"
	"repro/internal/tensor"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/topo"
)

func main() {
	cfg := npu.TPUv3Config()
	cfg.Cores = 2

	// Dense job: GEMM(512) compiled through the standard backend.
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	comp, err := sim.Compile(exp.GEMMGraph(512))
	if err != nil {
		log.Fatal(err)
	}
	dense := comp.Job("dense-gemm", 0, 0)

	// Sparse job: tiled SpMSpM(512) at 95% sparsity; per-tile latencies are
	// computed offline by the sparse core's data-dependent analysis.
	r := tensor.NewRNG(3)
	a := sparse.Random(r, 512, 512, 0.05)
	b := sparse.Random(r, 512, 512, 0.05)
	tiled, err := sparsecore.BuildTiledJob("spmspm-512", a, b, 128, sparsecore.DefaultConfig(), 1<<32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparse job: %d partial-product multiplies, %d output nnz, %d tile latencies\n",
		tiled.TotalMul, tiled.OutNNZ, len(tiled.TOG.TileLatencies))
	sparseJob := &togsim.Job{
		Name:  "sparse-spmspm",
		TOGs:  []*tog.TOG{tiled.TOG},
		Bases: []map[string]uint64{tiled.Bases},
		Core:  1,
		Src:   1,
	}

	// Run co-located on shared DRAM with FR-FCFS.
	res, in, err := core.NewStack(cfg, togsim.SimpleNet, dram.FRFCFS, topo.Config{}).Run([]*togsim.Job{dense, sparseJob})
	if err != nil {
		log.Fatal(err)
	}
	for _, j := range res.Jobs {
		fmt.Printf("%-14s %8d cycles (start %d, end %d)\n", j.Name, j.End-j.Start, j.Start, j.End)
	}
	st := in.Mem
	fmt.Printf("DRAM: row hits %d / misses %d; bytes by source: dense %d, sparse %d\n",
		st.RowHits, st.RowMisses, st.BytesBySrc[0], st.BytesBySrc[1])
}
