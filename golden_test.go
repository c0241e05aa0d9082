// Golden-file regression for the user-facing report surfaces: the text
// report ptsim -report prints, the JSON ptsim -json emits, and the JSON
// togsim -json emits. All three render the same report.Report through the
// same code paths the CLIs use, built with zero wall time so the bytes are
// fully deterministic. Regenerate after an intentional format change with
//
//	go test -run TestGolden -update .
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/golden"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/obs/report"
	"repro/internal/serve"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
)

// goldenReport produces the deterministic report both golden tests render:
// the quickstart GEMM on the small machine, wall time zeroed.
func goldenReport(t *testing.T) (npu.Config, report.Report) {
	t.Helper()
	cfg := npu.SmallConfig()
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	comp, err := sim.Compile(nn.GEMM(64))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.SimulateTLS(comp, core.SimpleNet)
	if err != nil {
		t.Fatal(err)
	}
	full := report.Build(cfg, report.Inputs{
		Res:      togsim.Result{Cycles: rep.Cycles, Jobs: rep.Jobs, Cores: rep.Cores},
		Mem:      rep.MemStats,
		NoCFlits: rep.NoCFlits,
	})
	return cfg, full
}

// TestGoldenPtsimReport pins the text rendering of ptsim -report.
func TestGoldenPtsimReport(t *testing.T) {
	_, full := goldenReport(t)
	golden.Check(t, "testdata/golden/ptsim_report.txt", []byte(full.Text()))
}

// TestGoldenPtsimJSON pins the JSON rendering of ptsim -json (indented
// encoder, exactly like the CLI).
func TestGoldenPtsimJSON(t *testing.T) {
	_, full := goldenReport(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(full); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/ptsim_report.json", buf.Bytes())
}

// TestGoldenTogsimJSON pins the JSON rendering of togsim -json: the first
// TOG of the compiled quickstart GEMM run standalone with togsim's tensor
// placement (one 256 MiB region per tensor, in TOG order).
func TestGoldenTogsimJSON(t *testing.T) {
	cfg := npu.SmallConfig()
	c := compiler.New(cfg, compiler.DefaultOptions())
	comp, err := c.Compile(nn.GEMM(64))
	if err != nil {
		t.Fatal(err)
	}
	g := comp.TOGs[0]
	bases := map[string]uint64{}
	var next uint64
	for _, tn := range g.Tensors {
		bases[tn] = next
		next += 1 << 28
	}
	s := togsim.NewStandard(cfg, togsim.SimpleNet, dram.FRFCFS)
	res, err := s.Engine.RunSingle(g, bases)
	if err != nil {
		t.Fatal(err)
	}
	rep := report.Build(cfg, report.Inputs{Res: res, Mem: s.MemStats(), NoCFlits: s.NetFlits()})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/togsim_report.json", buf.Bytes())
}

// goldenTopoReport produces the deterministic multi-package report the
// topology golden tests render: a decoder-small decode step sharded
// tensor-parallel across the four packages of a 2x2 mesh on the small
// machine — one rank per package, ring all_reduces per layer — built with
// zero wall time so the bytes (including the per-package breakdown and
// collective accounting) are fully deterministic.
func goldenTopoReport(t *testing.T) report.Report {
	t.Helper()
	cfg := npu.SmallConfig()
	spec := modelzoo.Spec{Model: "decoder-small", Ctx: 8, Topology: "mesh2x2", Parallel: "tensor"}.Normalize()
	tc, err := modelzoo.Topology(spec, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	g, err := modelzoo.BuildFor(spec, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compiler.New(cfg, compiler.DefaultOptions()).Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStack(cfg, togsim.SimpleNet, dram.FRFCFS, tc)
	jobs, err := st.Place(spec.Model, comp)
	if err != nil {
		t.Fatal(err)
	}
	in, err := st.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	in.Wall = 0
	return report.Build(st.Cfg, in)
}

// TestGoldenTopoReport pins the text rendering of a mesh2x2 tensor-
// parallel run (ptsim -topology mesh2x2 -parallel tensor -report).
func TestGoldenTopoReport(t *testing.T) {
	full := goldenTopoReport(t)
	golden.Check(t, "testdata/golden/topo_report.txt", []byte(full.Text()))
}

// TestGoldenTopoJSON pins the JSON rendering of the same run (indented
// encoder, exactly like the CLI).
func TestGoldenTopoJSON(t *testing.T) {
	full := goldenTopoReport(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(full); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/topo_report.json", buf.Bytes())
}

// goldenServeReport produces the deterministic serving report both serve
// golden tests render: a seeded 3-request continuous-batching run of the
// tiny decoder on the small machine. The generator never records host
// time, so the bytes are fully deterministic.
func goldenServeReport(t *testing.T) report.ServeReport {
	t.Helper()
	cfg := npu.SmallConfig()
	comp := compiler.New(cfg, compiler.DefaultOptions())
	memo := map[string]*compiler.Compiled{}
	sc := serve.Config{
		Model:    "decoder-tiny",
		NPU:      cfg,
		Net:      togsim.SimpleNet,
		MaxBatch: 2,
		KVBlock:  16,
		Compile: func(spec modelzoo.Spec) (*compiler.Compiled, bool, error) {
			key := fmt.Sprintf("%+v", spec.Normalize())
			if c, ok := memo[key]; ok {
				return c, true, nil
			}
			g, err := modelzoo.BuildGraph(spec)
			if err != nil {
				return nil, false, err
			}
			c, err := comp.Compile(g)
			if err != nil {
				return nil, false, err
			}
			memo[key] = c
			return c, false, nil
		},
	}
	reqs := serve.PoissonTrace(1, 3, 2e5, cfg.FreqMHz, 4, 4)
	rep, err := serve.Run(sc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGoldenServeReport pins the text rendering of ptserve -report.
func TestGoldenServeReport(t *testing.T) {
	rep := goldenServeReport(t)
	golden.Check(t, "testdata/golden/serve_report.txt", []byte(rep.Text()))
}

// TestGoldenServeJSON pins the JSON rendering of ptserve -json (indented
// encoder, exactly like the CLI).
func TestGoldenServeJSON(t *testing.T) {
	rep := goldenServeReport(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/serve_report.json", buf.Bytes())
}
