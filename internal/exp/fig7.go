package exp

import (
	"fmt"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/sparse"
	"repro/internal/sparsecore"
	"repro/internal/tensor"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// Fig7aResult reports the heterogeneous dense-sparse NPU study (§5.1):
// per-core latency alone (half bandwidth each) vs integrated (shared full
// bandwidth) under FR-FCFS.
type Fig7aResult struct {
	DenseSolo, DenseHetero   int64
	SparseSolo, SparseHetero int64
}

// DenseSpeedup is solo/hetero for the dense core (paper: ~1.23x).
func (r *Fig7aResult) DenseSpeedup() float64 {
	return float64(r.DenseSolo) / float64(r.DenseHetero)
}

// SparseSlowdown is hetero/solo for the sparse core (paper: ~1.4x).
func (r *Fig7aResult) SparseSlowdown() float64 {
	return float64(r.SparseHetero) / float64(r.SparseSolo)
}

func (r *Fig7aResult) String() string {
	var b strings.Builder
	b.WriteString("Fig. 7a — heterogeneous dense+sparse NPU (FR-FCFS shared DRAM)\n")
	fmt.Fprintf(&b, "dense  GEMM:   solo %d cycles -> hetero %d cycles (speedup %s)\n",
		r.DenseSolo, r.DenseHetero, Speedup(r.DenseSpeedup()))
	fmt.Fprintf(&b, "sparse SpMSpM: solo %d cycles -> hetero %d cycles (slowdown %s)\n",
		r.SparseSolo, r.SparseHetero, Speedup(r.SparseSlowdown()))
	return b.String()
}

// Fig7a runs the heterogeneous NPU study: a dense GEMM stream on an SA core
// and a 95%-sparse SpMSpM stream on a Flexagon-style sparse core. The
// baselines give each core a dedicated half-bandwidth memory; the
// heterogeneous NPU shares the full bandwidth between both.
func Fig7a(cfg npu.Config, quick bool) (*Fig7aResult, error) {
	// The dense stream must be bandwidth-hungry for the contention study: a
	// skinny GEMM streams a large weight matrix continuously (an LLM-style
	// projection layer), so its runtime tracks available bandwidth and its
	// row-hit-friendly bursts dominate the FR-FCFS queues.
	n := 512
	gk := 4096
	repeats := 6
	if quick {
		n = 256
		gk = 2048
		repeats = 4
	}
	// Dense job: (128 x gk) @ (gk x gk), repeated for steady state.
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	comp, err := sim.Compile(GEMMRectGraph(128, gk, gk))
	if err != nil {
		return nil, err
	}
	denseJob := func(coreID int) *togsim.Job {
		j := comp.Job("dense", coreID, 0)
		j.TOGs = repeatTOGs(j.TOGs, repeats)
		j.Bases = repeatBases(j.Bases, repeats)
		return j
	}
	// Sparse job: SpMSpM(n) at 95% sparsity.
	r := tensor.NewRNG(1)
	a := sparse.Random(r, n, n, 0.05)
	bm := sparse.Random(r, n, n, 0.05)
	spCfg := sparsecore.DefaultConfig()
	// CSR row fibres are strided slices of the full matrix; the stride is
	// deliberately not a multiple of the channel interleave so scattered
	// fibres spread across channels with poor row-buffer locality.
	spCfg.ScatterStride = 8224
	tiled, err := sparsecore.BuildTiledJob("spmspm", a, bm, 128, spCfg, 1<<32)
	if err != nil {
		return nil, err
	}
	sparseJob := func(coreID int) *togsim.Job {
		togs := repeatTOGs([]*tog.TOG{tiled.TOG}, repeats)
		bases := make([]map[string]uint64, repeats)
		for i := range bases {
			bases[i] = tiled.Bases
		}
		return &togsim.Job{Name: "sparse", TOGs: togs, Bases: bases, Core: coreID, Src: 1}
	}

	halfCfg := cfg
	halfCfg.Cores = 1
	halfCfg.Mem.Channels = cfg.Mem.Channels / 2

	run := func(c npu.Config, jobs []*togsim.Job) ([]togsim.JobResult, error) {
		in, err := core.NewStack(c, togsim.SimpleNet, dram.FRFCFS, topo.Config{}).Run(jobs)
		return in.Res.Jobs, err
	}

	soloD, err := run(halfCfg, []*togsim.Job{denseJob(0)})
	if err != nil {
		return nil, err
	}
	soloS, err := run(halfCfg, []*togsim.Job{sparseJob(0)})
	if err != nil {
		return nil, err
	}
	hetCfg := cfg
	hetCfg.Cores = 2
	het, err := run(hetCfg, []*togsim.Job{denseJob(0), sparseJob(1)})
	if err != nil {
		return nil, err
	}
	return &Fig7aResult{
		DenseSolo:    soloD[0].End - soloD[0].Start,
		SparseSolo:   soloS[0].End - soloS[0].Start,
		DenseHetero:  het[0].End - het[0].Start,
		SparseHetero: het[1].End - het[1].Start,
	}, nil
}

// Fig7bResult reports the multi-model tenancy study (§5.2).
type Fig7bResult struct {
	BERTSolo, BERTCo     int64
	ResNetSolo, ResNetCo int64
	// Achieved DRAM bandwidth in bytes/cycle.
	BERTSoloBW, BERTCoBW     float64
	ResNetSoloBW, ResNetCoBW float64
}

// BERTChange is co/solo latency ratio (paper: ~0.72, a 28% reduction).
func (r *Fig7bResult) BERTChange() float64 { return float64(r.BERTCo) / float64(r.BERTSolo) }

// ResNetChange is co/solo latency ratio (paper: ~1.15).
func (r *Fig7bResult) ResNetChange() float64 { return float64(r.ResNetCo) / float64(r.ResNetSolo) }

func (r *Fig7bResult) String() string {
	var b strings.Builder
	b.WriteString("Fig. 7b — multi-model tenancy: BERT-base (b4) + ResNet-18 (b8)\n")
	fmt.Fprintf(&b, "BERT-base: solo %d -> co-located %d cycles (ratio %s); BW %.1f -> %.1f B/cycle\n",
		r.BERTSolo, r.BERTCo, Speedup(r.BERTChange()), r.BERTSoloBW, r.BERTCoBW)
	fmt.Fprintf(&b, "ResNet-18: solo %d -> co-located %d cycles (ratio %s); BW %.1f -> %.1f B/cycle\n",
		r.ResNetSolo, r.ResNetCo, Speedup(r.ResNetChange()), r.ResNetSoloBW, r.ResNetCoBW)
	return b.String()
}

// Fig7b runs the co-location study: solo runs get half the DRAM bandwidth
// (a static partition); co-located runs share the full bandwidth.
func Fig7b(cfg npu.Config, quick bool) (*Fig7bResult, error) {
	var bertGraph, resnetGraph Workload
	if quick {
		bc := nn.BERTBaseConfig(4, 128)
		bc.Layers = 2
		rc := nn.ResNet18Config(8)
		rc.InputHW = 64
		bertGraph = Workload{Name: "bert", Graph: nn.BERT(bc).Graph}
		resnetGraph = Workload{Name: "resnet", Graph: nn.ResNet(rc).Graph}
	} else {
		bertGraph = Workload{Name: "bert", Graph: nn.BERT(nn.BERTBaseConfig(4, 512)).Graph}
		resnetGraph = Workload{Name: "resnet", Graph: nn.ResNet(nn.ResNet18Config(8)).Graph}
	}
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	bertComp, err := sim.Compile(bertGraph.Graph)
	if err != nil {
		return nil, err
	}
	resnetComp, err := sim.Compile(resnetGraph.Graph)
	if err != nil {
		return nil, err
	}

	halfCfg := cfg
	halfCfg.Cores = 1
	halfCfg.Mem.Channels = cfg.Mem.Channels / 2
	fullCfg := cfg
	fullCfg.Cores = 2

	type runOut struct {
		lat int64
		bw  float64
	}
	run := func(c npu.Config, jobs []*togsim.Job) ([]runOut, error) {
		in, err := core.NewStack(c, togsim.SimpleNet, dram.FRFCFS, topo.Config{}).Run(jobs)
		if err != nil {
			return nil, err
		}
		var out []runOut
		for i, jr := range in.Res.Jobs {
			dur := jr.End - jr.Start
			out = append(out, runOut{
				lat: dur,
				bw:  float64(in.Mem.BytesBySrc[jobs[i].Src]) / float64(dur),
			})
		}
		return out, nil
	}

	bSolo, err := run(halfCfg, []*togsim.Job{bertComp.Job("bert", 0, 0)})
	if err != nil {
		return nil, err
	}
	rSolo, err := run(halfCfg, []*togsim.Job{resnetComp.Job("resnet", 0, 1)})
	if err != nil {
		return nil, err
	}
	co, err := run(fullCfg, []*togsim.Job{
		bertComp.Job("bert", 0, 0),
		resnetComp.Job("resnet", 1, 1),
	})
	if err != nil {
		return nil, err
	}
	return &Fig7bResult{
		BERTSolo: bSolo[0].lat, BERTSoloBW: bSolo[0].bw,
		ResNetSolo: rSolo[0].lat, ResNetSoloBW: rSolo[0].bw,
		BERTCo: co[0].lat, BERTCoBW: co[0].bw,
		ResNetCo: co[1].lat, ResNetCoBW: co[1].bw,
	}, nil
}

func repeatTOGs(togs []*tog.TOG, n int) []*tog.TOG {
	var out []*tog.TOG
	for i := 0; i < n; i++ {
		out = append(out, togs...)
	}
	return out
}

func repeatBases(bases []map[string]uint64, n int) []map[string]uint64 {
	var out []map[string]uint64
	for i := 0; i < n; i++ {
		out = append(out, bases...)
	}
	return out
}
