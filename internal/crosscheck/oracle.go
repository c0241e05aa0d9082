package crosscheck

import (
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/report"
	"repro/internal/service/cache"
	"repro/internal/tensor"
	"repro/internal/timingsim"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// FuncTolerance is the relative/absolute tolerance of the funcsim-vs-host
// numerics oracle. The NPU accumulates float32 in tile order, the host
// reference in row order, so bit equality is not expected — agreement
// within float32 accumulation noise is.
const FuncTolerance = 1e-3

// Failure reports one diverging case: which oracle fired and why.
type Failure struct {
	Case   Case   `json:"case"`
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func (f *Failure) Error() string {
	return fmt.Sprintf("oracle %q: %s (%s)", f.Oracle, f.Detail, f.Case.String())
}

// Checker runs cases through the oracle set.
type Checker struct {
	// Fault, when non-nil, perturbs the compiled artifact after the base
	// compile — the deliberate-defect hook the self-test uses to prove the
	// oracles detect (and the shrinker minimizes) a ±1-cycle latency drift.
	// Production checking leaves it nil.
	Fault func(*compiler.Compiled)
	// MaxShrinkSteps bounds the shrinker's accepted reductions
	// (0 = DefaultMaxShrinkSteps).
	MaxShrinkSteps int
	// Log, when non-nil, receives one line per checked case.
	Log io.Writer
}

// PerturbTileLatency returns a Fault that shifts the first kernel-bearing
// compute node's latency by delta cycles — the smallest possible timing
// model drift. The ILS↔TLS oracle must catch it.
func PerturbTileLatency(delta int64) func(*compiler.Compiled) {
	return func(c *compiler.Compiled) {
		for _, g := range c.TOGs {
			for i := range g.Nodes {
				n := &g.Nodes[i]
				if n.Kind == tog.Compute && n.Kernel != "" {
					n.Cycles += delta
					return
				}
			}
		}
	}
}

// artifacts is the per-case shared state: compile once, let every oracle
// reuse it.
type artifacts struct {
	g    *graph.Graph
	comp *compiler.Compiled
	// tls is the event-driven engine result for the case's job set.
	tls togsim.Result
	// solo is the single-job result the ILS total is compared against
	// (identical to tls when the case runs one job).
	solo togsim.Result
}

func (cs Case) netKind() togsim.NetKind {
	if cs.Net == "cn" {
		return togsim.CycleNet
	}
	return togsim.SimpleNet
}

// buildJobs places the compiled model on core 0 and, for two-job cases, a
// second copy on core 1 with the case's arrival offset.
func (cs Case) buildJobs(comp *compiler.Compiled) []*togsim.Job {
	jobs := []*togsim.Job{comp.Job(comp.Name, 0, 0)}
	if cs.Jobs > 1 {
		j := comp.Job(comp.Name+"-b", 1, 1)
		j.Arrival = cs.Arrival
		jobs = append(jobs, j)
	}
	return jobs
}

// runEngine executes the case's jobs on a fresh single-package stack in the
// requested engine mode, returning the run's report inputs (its result
// among them).
func (cs Case) runEngine(comp *compiler.Compiled, strict bool, probe obs.Probe) (report.Inputs, error) {
	st := core.NewStack(cs.NPU, cs.netKind(), dram.FRFCFS, topo.Config{})
	st.Engine.StrictTick = strict
	if probe != nil {
		st.AttachProbe(probe)
	}
	return st.Run(cs.buildJobs(comp))
}

// prepare compiles the case (serial, private cache — the canonical
// artifact), applies the fault hook, and runs the baseline TLS passes.
func (ck *Checker) prepare(cs Case) (*artifacts, *Failure) {
	g, err := cs.Workload.Build()
	if err != nil {
		return nil, &Failure{Case: cs, Oracle: "build", Detail: err.Error()}
	}
	c := compiler.New(cs.NPU, cs.Opts)
	c.Workers = 1
	comp, err := c.Compile(g)
	if err != nil {
		return nil, &Failure{Case: cs, Oracle: "compile", Detail: err.Error()}
	}
	if ck.Fault != nil {
		ck.Fault(comp)
	}
	art := &artifacts{g: g, comp: comp}
	in, err := cs.runEngine(comp, false, nil)
	if err != nil {
		return nil, &Failure{Case: cs, Oracle: "engine", Detail: err.Error()}
	}
	art.tls = in.Res
	if cs.Jobs > 1 {
		solo := cs
		solo.Jobs = 1
		in, err := solo.runEngine(comp, false, nil)
		if err != nil {
			return nil, &Failure{Case: cs, Oracle: "engine", Detail: err.Error()}
		}
		art.solo = in.Res
	} else {
		art.solo = art.tls
	}
	return art, nil
}

// oracle is one named differential check.
type oracle struct {
	name string
	run  func(ck *Checker, cs Case, art *artifacts) error
}

// oracleList is the checking order: the cycle-agreement oracle first (it is
// the paper's headline claim), then numerics, then the metamorphic set.
var oracleList = []oracle{
	{"ils-tls", (*Checker).checkILSTLS},
	{"funcsim", (*Checker).checkFuncsim},
	{"engine-strict", (*Checker).checkStrictTick},
	{"energy-determinism", (*Checker).checkEnergy},
	{"probe", (*Checker).checkProbe},
	{"compile-workers", (*Checker).checkWorkers},
	{"compile-store", (*Checker).checkStore},
}

// OracleNames lists every oracle in checking order.
func OracleNames() []string {
	out := make([]string, len(oracleList))
	for i, o := range oracleList {
		out[i] = o.name
	}
	return out
}

// checkILSTLS enforces the §3.8 determinism claim from both ends: every
// TOG compute node's latency must equal an independent instruction-level
// re-measurement of its kernel (funcsim + timing pipeline, fresh state),
// and a full ILS run of the program must report exactly the TLS cycle
// count.
func (ck *Checker) checkILSTLS(cs Case, art *artifacts) error {
	measured := map[string]int64{}
	for ti, g := range art.comp.TOGs {
		for ni := range g.Nodes {
			n := &g.Nodes[ni]
			if n.Kind != tog.Compute || n.Kernel == "" {
				continue
			}
			want, ok := measured[n.Kernel]
			if !ok {
				prog, have := art.comp.Kernels[n.Kernel]
				if !have {
					return fmt.Errorf("TOG %d node %d references unknown kernel %q", ti, n.ID, n.Kernel)
				}
				res, err := timingsim.MeasureKernel(cs.NPU.Core, prog, nil)
				if err != nil {
					return fmt.Errorf("re-measuring kernel %q: %v", n.Kernel, err)
				}
				want = res.Cycles
				measured[n.Kernel] = want
			}
			if n.Cycles != want {
				return fmt.Errorf("TOG %d (%s) node %d: TLS uses %d cycles for kernel %q, ILS re-measurement gives %d",
					ti, g.Name, n.ID, n.Cycles, n.Kernel, want)
			}
		}
	}
	ils, _, err := core.NewSimulator(cs.NPU, cs.Opts).SimulateILS(art.comp, cs.netKind())
	if err != nil {
		return fmt.Errorf("ILS run: %v", err)
	}
	if ils.Cycles != art.solo.Cycles {
		return fmt.Errorf("ILS total %d cycles != TLS total %d cycles", ils.Cycles, art.solo.Cycles)
	}
	return nil
}

// checkFuncsim validates the functional simulator's numerics against the
// host reference executor on the same seeded inputs.
func (ck *Checker) checkFuncsim(cs Case, art *artifacts) error {
	if !art.comp.FunctionalOK {
		return nil // timing-only program; nothing to compare
	}
	env := cs.Env(art.g)
	npuOut, err := compiler.RunFunctional(art.comp, art.g, env)
	if err != nil {
		return fmt.Errorf("functional run: %v", err)
	}
	cpuOut, err := graph.Execute(art.g, env)
	if err != nil {
		return fmt.Errorf("reference run: %v", err)
	}
	for _, id := range art.g.Outputs {
		name := art.comp.OutputTensors[id]
		got, cpu := npuOut[name], cpuOut[id]
		if got == nil || cpu == nil {
			return fmt.Errorf("output %q (node %d) missing: npu=%v cpu=%v", name, id, got != nil, cpu != nil)
		}
		if !tensor.AllClose(got, cpu, FuncTolerance, FuncTolerance) {
			return fmt.Errorf("output %q diverges: max |npu-cpu| = %g (tolerance %g)",
				name, maxAbsDiff(got, cpu), FuncTolerance)
		}
	}
	return nil
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	var worst float64
	if len(a.Data) != len(b.Data) {
		return math.Inf(1)
	}
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i]) - float64(b.Data[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// checkStrictTick requires the strict per-cycle polling loop to reproduce
// the event-driven result bit for bit.
func (ck *Checker) checkStrictTick(cs Case, art *artifacts) error {
	strict, err := cs.runEngine(art.comp, true, nil)
	if err != nil {
		return fmt.Errorf("strict run: %v", err)
	}
	if !reflect.DeepEqual(art.tls, strict.Res) {
		return fmt.Errorf("event %+v != strict %+v", art.tls, strict.Res)
	}
	return nil
}

// checkProbe requires an attached observability probe to be invisible in
// the Result while still producing a non-empty trace.
func (ck *Checker) checkProbe(cs Case, art *artifacts) error {
	tw := obs.NewTraceWriter()
	traced, err := cs.runEngine(art.comp, false, tw)
	if err != nil {
		return fmt.Errorf("traced run: %v", err)
	}
	if !reflect.DeepEqual(art.tls, traced.Res) {
		return fmt.Errorf("plain %+v != traced %+v", art.tls, traced.Res)
	}
	if tw.Len() == 0 {
		return fmt.Errorf("traced run produced an empty trace")
	}
	return nil
}

// checkWorkers requires a Workers=N compile to be bit-identical to a
// serial one (fresh compilers, private caches on both sides).
func (ck *Checker) checkWorkers(cs Case, art *artifacts) error {
	serial := compiler.New(cs.NPU, cs.Opts)
	serial.Workers = 1
	c1, err := serial.Compile(art.g)
	if err != nil {
		return fmt.Errorf("serial compile: %v", err)
	}
	par := compiler.New(cs.NPU, cs.Opts)
	par.Workers = cs.Workers
	cN, err := par.Compile(art.g)
	if err != nil {
		return fmt.Errorf("workers=%d compile: %v", cs.Workers, err)
	}
	if !reflect.DeepEqual(c1, cN) {
		return fmt.Errorf("workers=%d compile differs from serial (%s)", cs.Workers, describeCompiledDiff(c1, cN))
	}
	return nil
}

// checkStore requires a warm compile over the store a cold compile wrote
// its kernel latencies to be bit-identical and measurement-free.
func (ck *Checker) checkStore(cs Case, art *artifacts) error {
	store := cache.NewMemory()
	cold := core.NewSimulator(cs.NPU, cs.Opts)
	cold.Compiler.Cache().SetStore(store)
	c1, err := cold.Compile(art.g)
	if err != nil {
		return fmt.Errorf("cold compile: %v", err)
	}
	warm := core.NewSimulator(cs.NPU, cs.Opts)
	warm.Compiler.Cache().SetStore(store)
	c2, err := warm.Compile(art.g)
	if err != nil {
		return fmt.Errorf("warm compile: %v", err)
	}
	if n := warm.Compiler.MeasureCount(); n != 0 {
		return fmt.Errorf("warm compile re-ran %d measurements (want 0)", n)
	}
	if !reflect.DeepEqual(c1, c2) {
		return fmt.Errorf("warm compile differs from cold (%s)", describeCompiledDiff(c1, c2))
	}
	return nil
}

// describeCompiledDiff localizes the first difference between two compiled
// artifacts for the divergence report.
func describeCompiledDiff(a, b *compiler.Compiled) string {
	if len(a.TOGs) != len(b.TOGs) {
		return fmt.Sprintf("TOG count %d vs %d", len(a.TOGs), len(b.TOGs))
	}
	for i := range a.TOGs {
		if !reflect.DeepEqual(a.TOGs[i], b.TOGs[i]) {
			return fmt.Sprintf("TOG %d (%s) differs", i, a.TOGs[i].Name)
		}
	}
	if !reflect.DeepEqual(a.Kernels, b.Kernels) {
		return "kernel programs differ"
	}
	if !reflect.DeepEqual(a.Bases, b.Bases) {
		return "tensor bases differ"
	}
	return "metadata differs"
}

// RunCase checks one case against every oracle, returning the first
// divergence or nil.
func (ck *Checker) RunCase(cs Case) *Failure {
	art, fail := ck.prepare(cs)
	if fail != nil {
		return fail
	}
	for _, o := range oracleList {
		if err := o.run(ck, cs, art); err != nil {
			return &Failure{Case: cs, Oracle: o.name, Detail: err.Error()}
		}
	}
	return nil
}

// Stats summarizes a generation run.
type Stats struct {
	Cases int            // cases checked (including a failing one)
	Kinds map[string]int // workload kinds seen
}

// Run generates and checks n cases from the stream seed, stopping at the
// first divergence. The returned Failure (nil when everything agreed) is
// the raw, unshrunk case.
func (ck *Checker) Run(seed uint64, n int) (*Failure, Stats) {
	st := Stats{Kinds: map[string]int{}}
	for i := 0; i < n; i++ {
		cs := Generate(seed, i)
		st.Cases++
		st.Kinds[cs.Workload.Kind]++
		if ck.Log != nil {
			fmt.Fprintf(ck.Log, "%s\n", cs.String())
		}
		if fail := ck.RunCase(cs); fail != nil {
			return fail, st
		}
	}
	return nil, st
}
