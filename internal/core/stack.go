package core

import (
	"time"

	"repro/internal/compiler"
	"repro/internal/dram"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/obs/report"
	"repro/internal/parallel"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// Stack is one ready-to-run TLS stack — engine over fabric over DRAM and
// interconnect — for a machine of one package or many. It is the single
// place a run is assembled: ptsim (TLS and ILS), ptsimd jobs, serve
// iterations, cmd/togsim, the experiments, training, the oracles and the
// examples all build their engine here, so a hook that must see every run
// (recover, cancellation, request IDs, host-time phases) belongs in
// NewStack and Run. Run knobs stay on Engine (MaxCycles, StrictTick).
// The one deliberate exception is the §5.1 sparse-core validation
// (exp/sparseval.go), which runs on togsim.NewFlatLatency's flat 100 ns
// memory instead of the DRAM/NoC stack built here.
type Stack struct {
	Engine *togsim.Engine
	// Cfg is the machine the engine simulates: the caller's config, with
	// the core count of the whole topology when it has several packages.
	Cfg npu.Config

	std *togsim.Setup // single package
	fab *topo.Fabric  // multi-package
}

// NewStack builds the stack for cfg on topology tc: the standard fabric
// with the selected interconnect model and DRAM scheduler for at most one
// package (the zero topo.Config included), the topology fabric otherwise.
// Neither kind nor sched applies there: packages talk over tc's links and
// each package's DRAM controller is FR-FCFS (no multi-package caller asks
// for another policy). A multi-package tc must validate, as topo.Preset
// results do.
func NewStack(cfg npu.Config, kind togsim.NetKind, sched dram.SchedulerKind, tc topo.Config) *Stack {
	if tc.Packages() <= 1 {
		std := togsim.NewStandard(cfg, kind, sched)
		return &Stack{Engine: std.Engine, Cfg: cfg, std: std}
	}
	cfg.Cores = tc.TotalCores()
	fab := topo.NewFabric(tc)
	return &Stack{Engine: togsim.NewEngine(cfg, fab), Cfg: cfg, fab: fab}
}

// AttachProbe wires an observability probe into every layer of the stack.
// Attaching a probe never changes simulation results. The per-package DRAM
// controllers of a topology fabric stay unprobed: they would interleave on
// the one DRAM counter track, and the fabric's own byte counter covers them.
func (s *Stack) AttachProbe(p obs.Probe) {
	if s.std != nil {
		s.std.AttachProbe(p)
		return
	}
	s.Engine.Probe = p
	s.fab.Probe = p
}

// Place turns one compiled artifact into the stack's job set: a single job
// on core 0, or one rank per package around the collective ring
// (parallel.PlaceJobs), named "<name>.r<rank>".
func (s *Stack) Place(name string, comp *compiler.Compiled) ([]*togsim.Job, error) {
	if s.std != nil {
		return []*togsim.Job{comp.Job(name, 0, 0)}, nil
	}
	return parallel.PlaceJobs(name, comp, s.fab.Config())
}

// Run simulates jobs to completion and returns the result together with
// everything report.Build needs about this run, whichever fabric ran it.
func (s *Stack) Run(jobs []*togsim.Job) (togsim.Result, report.Inputs, error) {
	start := time.Now()
	res, err := s.Engine.Run(jobs)
	if err != nil {
		return togsim.Result{}, report.Inputs{}, err
	}
	in := report.Inputs{Res: res, Wall: time.Since(start)}
	if s.std != nil {
		in.Mem, in.NoCFlits = s.std.MemStats(), s.std.NetFlits()
	} else {
		in.Mem, in.LinkFlits, in.Topo = s.fab.MemTotals(), s.fab.LinkFlits, s.fab
	}
	return res, in, nil
}
