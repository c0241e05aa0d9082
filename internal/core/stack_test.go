package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/sparsecore"
	"repro/internal/tensor"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// TestStackFunnel drives the one run funnel over both fabrics: for each
// machine the Result must be identical event-driven and under StrictTick,
// with or without a recording probe, and the report inputs must carry
// everything report.Build reads for that fabric kind. The scheduler axis
// checks the DRAM policy argument reaches the controller.
func TestStackFunnel(t *testing.T) {
	cfg := npu.SmallConfig()
	preset := func(name string) topo.Config {
		tc, err := topo.Preset(name, cfg.Mem)
		if err != nil {
			t.Fatal(err)
		}
		return tc
	}
	for _, m := range []struct {
		name  string
		kind  togsim.NetKind
		tc    topo.Config
		graph *graph.Graph
	}{
		{"single/sn", togsim.SimpleNet, topo.Config{}, gemmGraph(32)},
		{"single/cn", togsim.CycleNet, preset("single"), gemmGraph(32)},
		{"pkg2/tensor", togsim.SimpleNet, preset("pkg2"), nn.Decoder(nn.DecoderTinyConfig(1, 8, false), 2).Graph},
		{"mesh2x2/data", togsim.SimpleNet, preset("mesh2x2"), parallel.DataParallel(gemmGraph(32), 4)},
	} {
		t.Run(m.name, func(t *testing.T) {
			comp, err := compiler.New(cfg, compiler.DefaultOptions()).Compile(m.graph)
			if err != nil {
				t.Fatal(err)
			}
			multi := m.tc.Packages() > 1
			var want togsim.Result
			for i, strict := range []bool{false, true, false, true} {
				var tw *obs.TraceWriter
				st := NewStack(cfg, m.kind, dram.FRFCFS, m.tc)
				st.Engine.StrictTick = strict
				if i >= 2 {
					tw = obs.NewTraceWriter()
					st.AttachProbe(tw)
				}
				what := fmt.Sprintf("strict=%v probe=%v", strict, tw != nil)
				jobs, err := st.Place("job", comp)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if wantJobs := max(m.tc.Packages(), 1); len(jobs) != wantJobs {
					t.Fatalf("%s: placed %d jobs, want %d", what, len(jobs), wantJobs)
				}
				res, in, err := st.Run(jobs)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if i == 0 {
					want = res
				} else if !reflect.DeepEqual(res, want) {
					t.Fatalf("%s: result diverges from serial/unprobed:\n%+v\nvs\n%+v", what, res, want)
				}
				if tw != nil && tw.Len() == 0 {
					t.Fatalf("%s: attached probe recorded nothing", what)
				}

				if !reflect.DeepEqual(in.Res, res) || res.Cycles <= 0 || in.Wall <= 0 {
					t.Fatalf("%s: inputs carry %d cycles, %v wall; result has %d", what, in.Res.Cycles, in.Wall, res.Cycles)
				}
				if in.Mem == nil || in.Mem.TotalBytes == 0 {
					t.Fatalf("%s: no DRAM stats: %+v", what, in.Mem)
				}
				if multi {
					if in.Topo == nil || in.LinkFlits == 0 || in.LinkFlits != in.Topo.LinkFlits || in.NoCFlits != 0 {
						t.Fatalf("%s: topology inputs incomplete: topo=%v link=%d noc=%d", what, in.Topo != nil, in.LinkFlits, in.NoCFlits)
					}
					if st.Cfg.Cores != m.tc.TotalCores() {
						t.Fatalf("%s: machine has %d cores, topology %d", what, st.Cfg.Cores, m.tc.TotalCores())
					}
				} else if in.Topo != nil || in.LinkFlits != 0 || in.NoCFlits == 0 {
					t.Fatalf("%s: single-package inputs wrong: topo=%v link=%d noc=%d", what, in.Topo != nil, in.LinkFlits, in.NoCFlits)
				}
			}
		})
	}
	t.Run("single/sched", schedulerAxis)
}

// schedulerAxis is TestStackFunnel's DRAM-scheduler axis: on a row-contended pair — a streaming dense GEMM on
// core 0 beside a sparse core whose scattered fibre fetches have poor
// row-buffer locality (the dense+sparse pair of the scheduler ablation) —
// the stack must run the DRAM scheduler it is given: bit-identical to the
// standard stack built with that scheduler, and visibly different from the
// other policy, so a dropped argument cannot pass.
func schedulerAxis(t *testing.T) {
	cfg := npu.SmallConfig()
	cfg.Cores = 2
	comp, err := compiler.New(cfg, compiler.DefaultOptions()).Compile(gemmGraph(64))
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(1)
	a, b := sparse.Random(r, 128, 128, 0.05), sparse.Random(r, 128, 128, 0.05)
	spCfg := sparsecore.DefaultConfig()
	spCfg.ScatterStride = 8224
	tiled, err := sparsecore.BuildTiledJob("spmspm", a, b, 64, spCfg, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	jobs := func() []*togsim.Job {
		sp := &togsim.Job{Name: "sparse", Core: 1, Src: 1}
		for range 3 {
			sp.TOGs = append(sp.TOGs, tiled.TOG)
			sp.Bases = append(sp.Bases, tiled.Bases)
		}
		return []*togsim.Job{comp.Job("dense", 0, 0), sp}
	}
	got := map[dram.SchedulerKind]togsim.Result{}
	for _, sched := range []dram.SchedulerKind{dram.FRFCFS, dram.FCFS} {
		res, _, err := NewStack(cfg, togsim.SimpleNet, sched, topo.Config{}).Run(jobs())
		if err != nil {
			t.Fatal(err)
		}
		want, err := togsim.NewStandard(cfg, togsim.SimpleNet, sched).Engine.Run(jobs())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("scheduler %v: stack result diverges from the standard stack's:\n%+v\nvs\n%+v", sched, res, want)
		}
		got[sched] = res
	}
	if reflect.DeepEqual(got[dram.FRFCFS], got[dram.FCFS]) {
		t.Fatalf("FR-FCFS and FCFS give the same result (%d cycles): the set is not row-contended", got[dram.FCFS].Cycles)
	}
}

// TestSimulatorTopology: a Simulator with a multi-package Topo runs
// SimulateTLS through the same body as a single-package one — the cycle
// bound applies and the report carries what the renderer needs.
func TestSimulatorTopology(t *testing.T) {
	cfg := npu.SmallConfig()
	tc, err := topo.Preset("pkg2", cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(cfg, compiler.DefaultOptions())
	sim.Topo = tc
	comp, err := sim.Compile(nn.Decoder(nn.DecoderTinyConfig(1, 8, false), 2).Graph)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.SimulateTLS(comp, SimpleNet)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 || rep.Machine.Cores != 2 || rep.Topo == nil || rep.LinkFlits == 0 {
		t.Fatalf("want 2 ranks on a 2-core machine with link traffic: %d jobs, %d cores, topo=%v, %d flits",
			len(rep.Jobs), rep.Machine.Cores, rep.Topo != nil, rep.LinkFlits)
	}
	if in := rep.Inputs(); in.Topo != rep.Topo || in.LinkFlits != rep.LinkFlits || in.Res.Cycles != rep.Cycles {
		t.Fatalf("Inputs() drops run state: %+v", in)
	}
	sim.MaxCycles = rep.Cycles / 2
	var dl *togsim.DeadlockError
	if _, err := sim.SimulateTLS(comp, SimpleNet); !errors.As(err, &dl) {
		t.Fatalf("MaxCycles=%d on a %d-cycle run: want a DeadlockError, got %v", sim.MaxCycles, rep.Cycles, err)
	}
}
