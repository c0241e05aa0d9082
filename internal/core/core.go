// Package core is the top-level PyTorchSim-reproduction framework facade:
// it ties the model zoo, the compiler backend, and the simulators together
// behind the workflow of Fig. 1 — capture a graph, compile it to kernels
// and TOGs, then simulate with TLS (fast, cycle-accurate shared resources),
// ILS (instruction-level), or functionally (output validation / training).
//
// Typical use:
//
//	sim := core.NewSimulator(npu.TPUv3Config(), compiler.DefaultOptions())
//	comp, _ := sim.Compile(model.Graph)
//	rep, _ := sim.SimulateTLS(comp, core.SimpleNet)
//	fmt.Println(rep.Cycles, rep.Time())
package core

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/obs/report"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// NetKind re-exports the interconnect model selector (§4.1: SN vs CN).
type NetKind = togsim.NetKind

// Interconnect models.
const (
	SimpleNet = togsim.SimpleNet
	CycleNet  = togsim.CycleNet
)

// Simulator bundles a target NPU configuration with a compiler whose kernel
// latency cache persists across compilations (the TOG cache of §3.10).
// SimulateTLS is the one run body for a compiled artifact, and it needs
// only the machine (Cfg, Topo, MaxCycles, Probe): a caller whose artifact
// comes from elsewhere, such as the service's compile cache, runs it on a
// Simulator value with no Compiler.
type Simulator struct {
	Cfg      npu.Config
	Compiler *compiler.Compiler

	// Topo, when it has more than one package, spreads every TLS run over
	// the topology: SimulateTLS places one rank of the artifact per package
	// and the run uses the topology fabric (the zero value = one package).
	Topo topo.Config

	// MaxCycles bounds every timing simulation this simulator runs — the
	// deadlock guard, configurable per run instead of only the package
	// constant (0 = togsim.DefaultMaxCycles).
	MaxCycles int64

	// Probe, when non-nil, is attached to every TLS stack this simulator
	// builds (engine spans plus fabric/NoC/DRAM counters). It never changes
	// simulation results; compile-phase spans come from the compiler's own
	// Probe.
	Probe obs.Probe
}

// NewSimulator returns a simulator for the given NPU and compiler options.
func NewSimulator(cfg npu.Config, opts compiler.Options) *Simulator {
	return &Simulator{Cfg: cfg, Compiler: compiler.New(cfg, opts)}
}

// Compile lowers a captured graph to kernels and TOGs.
func (s *Simulator) Compile(g *graph.Graph) (*compiler.Compiled, error) {
	return s.Compiler.Compile(g)
}

// Report summarizes a timing simulation.
type Report struct {
	Cycles    int64
	FreqMHz   int
	Jobs      []togsim.JobResult
	Cores     []togsim.CoreStats
	MemStats  *dram.Stats
	NoCFlits  int64
	LinkFlits int64
	WallClock time.Duration

	// Machine is the NPU the engine simulated (the simulator's config with
	// the topology's total core count) — the config to render Inputs with.
	Machine npu.Config
	// Topo is the topology fabric of a multi-package run (nil otherwise).
	Topo *topo.Fabric
}

// Inputs returns the report.Build inputs of this run.
func (r Report) Inputs() report.Inputs {
	return report.Inputs{
		Res:       togsim.Result{Cycles: r.Cycles, Jobs: r.Jobs, Cores: r.Cores},
		Mem:       r.MemStats,
		NoCFlits:  r.NoCFlits,
		LinkFlits: r.LinkFlits,
		Wall:      r.WallClock,
		Topo:      r.Topo,
	}
}

// Time converts simulated cycles to simulated wall time at the core clock.
func (r Report) Time() time.Duration {
	return time.Duration(float64(r.Cycles) / float64(r.FreqMHz) * 1e3 * float64(time.Nanosecond))
}

// String renders a short human-readable summary.
func (r Report) String() string {
	return fmt.Sprintf("%d cycles (%.3f ms simulated @ %d MHz, %v host)",
		r.Cycles, float64(r.Cycles)/float64(r.FreqMHz)/1e3, r.FreqMHz, r.WallClock.Round(time.Millisecond))
}

// SimulateTLS runs the compiled model in Tile-Level Simulation mode with
// the selected interconnect model: on core 0, or one rank per package of
// s.Topo.
func (s *Simulator) SimulateTLS(comp *compiler.Compiled, kind NetKind) (Report, error) {
	return s.simulateTLS(comp, kind, s.Probe)
}

// simulateTLS is the one run body for a compiled artifact, behind
// SimulateTLS and SimulateILS, and through SimulateTLS behind every ptsimd
// job, autotune candidate and serving iteration: a fresh stack carrying
// this simulator's run knobs.
func (s *Simulator) simulateTLS(comp *compiler.Compiled, kind NetKind, probe obs.Probe) (Report, error) {
	st := NewStack(s.Cfg, kind, dram.FRFCFS, s.Topo)
	st.Engine.MaxCycles = s.MaxCycles
	if probe != nil {
		st.AttachProbe(probe)
	}
	jobs, err := st.Place(comp.Name, comp)
	if err != nil {
		return Report{}, err
	}
	in, err := st.Run(jobs)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Cycles:    in.Res.Cycles,
		FreqMHz:   st.Cfg.FreqMHz,
		Jobs:      in.Res.Jobs,
		Cores:     in.Res.Cores,
		MemStats:  in.Mem,
		NoCFlits:  in.NoCFlits,
		LinkFlits: in.LinkFlits,
		WallClock: in.Wall,
		Machine:   st.Cfg,
		Topo:      in.Topo,
	}, nil
}

// SimulateILS runs the compiled model in Instruction-Level Simulation
// mode: compiler.RunILS executes every dynamic kernel instance instruction
// by instruction, then the model runs on the same stack, placement and run
// body as SimulateTLS. The cycle count comes from that engine run, so it
// equals TLS's by construction; the per-instruction pass is executed and
// timed but does not feed it. WallClock covers both passes — that is what
// Fig. 6's ILS column times.
func (s *Simulator) SimulateILS(comp *compiler.Compiled, kind NetKind) (Report, compiler.ILSResult, error) {
	start := time.Now()
	ils, err := compiler.RunILS(comp, s.Cfg.Core)
	if err != nil {
		return Report{}, ils, err
	}
	rep, err := s.simulateTLS(comp, kind, s.Probe)
	if err != nil {
		return Report{}, ils, err
	}
	rep.WallClock = time.Since(start)
	return rep, ils, nil
}
