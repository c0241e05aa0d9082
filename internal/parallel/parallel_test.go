package parallel_test

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/parallel"
	"repro/internal/togsim"
	"repro/internal/topo"
)

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]parallel.Strategy{
		"": parallel.None, "none": parallel.None, "single": parallel.None,
		"data": parallel.Data, "tensor": parallel.Tensor,
	} {
		got, err := parallel.ParseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parallel.ParseStrategy("pipeline"); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestDataParallelAppendsAllReduce(t *testing.T) {
	g := graph.New("g")
	x := g.Input("x", 4, 8)
	w := g.Param("w", 8, 8)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Inputs: []int{x.ID, w.ID}, Shape: []int{4, 8}})
	g.Outputs = []int{mm.ID}
	dp := parallel.DataParallel(g, 2)
	if err := dp.Validate(); err != nil {
		t.Fatal(err)
	}
	out := dp.Nodes[dp.Outputs[0]]
	if out.Op != graph.OpAllReduce || out.Parts != 2 {
		t.Fatalf("output should be a 2-part all_reduce, got %s parts=%d", out.Op, out.Parts)
	}
	if len(dp.Nodes) != len(g.Nodes)+1 {
		t.Fatalf("replica should add exactly one node per output")
	}
}

// compileTP compiles the rank-0-normalized tensor-parallel decoder shard
// for the given part count.
func compileTP(t *testing.T, cfg npu.Config, parts int) *compiler.Compiled {
	t.Helper()
	m := nn.Decoder(nn.DecoderTinyConfig(2, 8, false), parts)
	comp, err := compiler.New(cfg, compiler.DefaultOptions()).Compile(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if comp.FunctionalOK {
		t.Fatal("collective TOGs must not claim functional executability")
	}
	return comp
}

// simulate runs placed jobs on a fresh stack for the topology.
func simulate(cfg npu.Config, tc topo.Config, jobs []*togsim.Job, strict bool) (togsim.Result, *topo.Fabric, error) {
	st := core.NewStack(cfg, togsim.SimpleNet, dram.FRFCFS, tc)
	st.Engine.StrictTick = strict
	res, in, err := st.Run(jobs)
	return res, in.Topo, err
}

// TestPlaceAndSimulateTP: a tensor-parallel decoder on 2 packages must run
// to completion, move bytes over the link, attribute collective cycles,
// and stay bit-identical between event-driven and strict ticking.
func TestPlaceAndSimulateTP(t *testing.T) {
	cfg := npu.SmallConfig()
	tc, err := topo.Preset("pkg2", cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	tc.PkgAddrBits = 26
	comp := compileTP(t, cfg, 2)
	jobs, err := parallel.PlaceJobs("tp", comp, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].Core == jobs[1].Core {
		t.Fatalf("want one job per package, got %+v", jobs)
	}
	res, fab, err := simulate(cfg, tc, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	if fab.LinkFlits == 0 || fab.RemoteBytes == 0 {
		t.Fatal("tensor parallelism must cross the package link")
	}
	for _, jr := range res.Jobs {
		if jr.Collectives == 0 || jr.CollectiveCycles <= 0 {
			t.Fatalf("%s: no collective time attributed: %+v", jr.Name, jr)
		}
		if jr.CollectiveCycles > jr.End-jr.Start {
			t.Fatalf("%s: collective cycles exceed job span", jr.Name)
		}
	}
	jobs2, err := parallel.PlaceJobs("tp", comp, tc)
	if err != nil {
		t.Fatal(err)
	}
	res2, fab2, err := simulate(cfg, tc, jobs2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("event-driven vs strict diverge:\n%+v\n%+v", res, res2)
	}
	if !reflect.DeepEqual(fab.Pkg, fab2.Pkg) {
		t.Fatal("per-package stats diverge across engine modes")
	}
}

// TestPlaceRejectsMismatchedRing: an artifact compiled for 2 parts must
// not place onto a 4-package mesh.
func TestPlaceRejectsMismatchedRing(t *testing.T) {
	cfg := npu.SmallConfig()
	comp := compileTP(t, cfg, 2)
	tc, err := topo.Preset("mesh2x2", cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	tc.PkgAddrBits = 26
	if _, err := parallel.PlaceJobs("tp", comp, tc); err == nil {
		t.Fatal("parts/packages mismatch must be rejected")
	}
}

// TestMeshDataParallel: a data-parallel GEMM on a 2x2 mesh exercises the
// 4-way ring and finishes with every rank's collective accounted.
func TestMeshDataParallel(t *testing.T) {
	cfg := npu.SmallConfig()
	tc, err := topo.Preset("mesh2x2", cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	tc.PkgAddrBits = 26
	g := graph.New("gemm")
	x := g.Input("x", 32, 64)
	w := g.Param("w", 64, 32)
	mm := g.Add(&graph.Node{Op: graph.OpMatMul, Inputs: []int{x.ID, w.ID}, Shape: []int{32, 32}})
	g.Outputs = []int{mm.ID}
	comp, err := compiler.New(cfg, compiler.DefaultOptions()).Compile(parallel.DataParallel(g, 4))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := parallel.PlaceJobs("dp", comp, tc)
	if err != nil {
		t.Fatal(err)
	}
	res, fab, err := simulate(cfg, tc, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("want 4 ranks, got %d", len(res.Jobs))
	}
	for _, jr := range res.Jobs {
		if jr.Collectives != 1 {
			t.Fatalf("%s: want exactly the output all_reduce, got %d regions", jr.Name, jr.Collectives)
		}
	}
	// Each package must have both local traffic and ring-link traffic.
	for p, ps := range fab.Pkg {
		if ps.LinkFlits == 0 {
			t.Fatalf("package %d sent no link flits", p)
		}
	}
}
