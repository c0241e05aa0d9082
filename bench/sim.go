package main

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/npu"
	"repro/internal/obs/report"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
)

// compileTrace times one cold compile from outside the compiler: graph
// build, then the four passes through Compiler.PhaseHook, with the
// timing-simulator calls under the measure pass through a Measurer
// decorator. Untraced (rc.tr == nil) it only builds and compiles.
type compileTrace struct {
	rc    *runCtx
	layer map[string]float64 // summed over calls
	n     int
}

func newCompileTrace(rc *runCtx) *compileTrace {
	return &compileTrace{rc: rc, layer: map[string]float64{}}
}

// compile builds the spec's graph and compiles it on a fresh compiler: what
// a user pays before the first simulated cycle.
func (ct *compileTrace) compile(cfg npu.Config, spec modelzoo.Spec, parent int, req string) (*core.Simulator, *compiler.Compiled, error) {
	t0 := time.Now()
	g, err := modelzoo.BuildGraph(spec)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	var meas *measurerDec
	type phase struct {
		p compiler.Phase
		d time.Duration
	}
	var phases []phase
	if ct.rc.traced() {
		meas = &measurerDec{inner: compiler.TimingMeasurer{}}
		sim.Compiler.Measurer = meas
		sim.Compiler.PhaseHook = func(p compiler.Phase, d time.Duration) { phases = append(phases, phase{p, d}) }
	}
	comp, err := sim.Compile(g)
	if err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	if !ct.rc.traced() {
		return sim, comp, nil
	}

	tr := ct.rc.tr
	ct.n++
	tr.add(parent, "graph.build", req, t0, t1)
	cid := tr.add(parent, "compiler.compile", req, t1, t2)
	ct.layer["graph.build_s"] += t1.Sub(t0).Seconds()
	ct.layer["graph.nodes"] += float64(len(g.Nodes))
	var off time.Duration
	for _, ph := range phases {
		pid := tr.addAgg(cid, "compiler."+string(ph.p), req, off, ph.d)
		off += ph.d
		ct.layer["compiler."+string(ph.p)+"_s"] += ph.d.Seconds()
		if ph.p == compiler.PhaseMeasure {
			tr.addAgg(pid, "timingsim.measure", req, 0, time.Duration(meas.ns.Load()))
		}
	}
	st := sim.Compiler.Stats()
	ct.layer["compiler.kernels_measured"] += float64(st.MeasureCount)
	ct.layer["compiler.sig_lookups"] += float64(st.SigLookups)
	ct.layer["timingsim.measure_s"] += float64(meas.ns.Load()) / 1e9
	ct.layer["timingsim.calls"] += float64(meas.calls.Load())
	return sim, comp, nil
}

// into writes the per-compile means into a layer map.
func (ct *compileTrace) into(layer map[string]float64) {
	for k, v := range ct.layer {
		layer[k] = v / float64(ct.n)
	}
}

// engineTrace sums what the fabric, DRAM and NoC decorators saw over the
// traced engine runs of one workload.
type engineTrace struct {
	layer  map[string]float64
	n      int
	cycles int64
}

// run executes jobs on a decorated stack and records the engine span with
// its aggregate children.
func (et *engineTrace) run(tr *tracer, cfg npu.Config, kind togsim.NetKind, jobs []*togsim.Job, parent int, req string) (togsim.Result, *tracedStack, error) {
	st := newTracedStack(cfg, kind)
	t0 := time.Now()
	res, err := st.engine.Run(jobs)
	t1 := time.Now()
	if err != nil {
		return res, st, err
	}
	// The decorator totals are estimates from sampled calls, so a small
	// layer's self time can come out a little below zero; it is floored.
	fabNs, dramNs, nocNs := st.fab.ns(), st.dram.ns(), st.noc.ns()
	eid := tr.add(parent, "togsim.engine", req, t0, t1)
	fid := tr.addAgg(eid, "togsim.fabric", req, 0, time.Duration(fabNs))
	tr.addAgg(fid, "dram", req, 0, time.Duration(dramNs))
	tr.addAgg(fid, "noc", req, time.Duration(dramNs), time.Duration(nocNs))

	l := et.layer
	run := t1.Sub(t0).Seconds()
	l["togsim.engine_run_s"] += run
	l["togsim.engine_self_s"] += max(run-float64(fabNs)/1e9, 0)
	l["fabric.self_s"] += max(float64(fabNs-dramNs-nocNs)/1e9, 0)
	l["fabric.submit_calls"] += float64(st.fab.submit.calls)
	l["fabric.tick_calls"] += float64(st.fab.tick.calls)
	l["fabric.next_event_calls"] += float64(st.fab.nextEvent.calls)
	l["fabric.skip_calls"] += float64(st.fab.skipTo.calls)
	l["fabric.completed_calls"] += float64(st.fab.completed.calls)
	l["dram.busy_s"] += float64(dramNs) / 1e9
	l["dram.ticks"] += float64(st.dram.tick.calls)
	l["dram.requests"] += float64(st.dram.requests)
	if s := st.mem.Stats; s.RowHits+s.RowMisses > 0 {
		l["dram.row_hit_ratio"] += 100 * float64(s.RowHits) / float64(s.RowHits+s.RowMisses)
	}
	l["noc.busy_s"] += float64(nocNs) / 1e9
	l["noc.ticks"] += float64(st.noc.tick.calls)
	l["noc.flits"] += float64(st.noc.Flits())
	et.n++
	et.cycles += res.Cycles
	return res, st, nil
}

func (et *engineTrace) into(layer map[string]float64) {
	if et.n == 0 {
		return
	}
	for k, v := range et.layer {
		layer[k] = v / float64(et.n)
	}
	if run := et.layer["togsim.engine_run_s"]; run > 0 && et.cycles > 0 {
		layer["togsim.host_ns_per_cycle"] = run * 1e9 / float64(et.cycles)
		layer["togsim.sim_cycles_per_s"] = float64(et.cycles) / run
	}
}

// runSim is the sim.* workloads: set-up is graph build plus cold compile on
// a fresh compiler; the op is one TLS simulation of the compiled model. On
// one core that is core.Simulator.SimulateTLS plus report.Build, what ptsim
// does; on several cores the compiled model is replicated on every core
// over one standard fabric.
func runSim(rc *runCtx, spec modelzoo.Spec, cores int) (*outcome, error) {
	cfg, err := modelzoo.NPUConfig(rc.prof.npu)
	if err != nil {
		return nil, err
	}
	o := &outcome{layer: map[string]float64{}}
	ct := newCompileTrace(rc)
	var sim *core.Simulator
	var comp *compiler.Compiled
	err = o.setupLoop(rc.prof.setupReps, func(i int) error {
		req := fmt.Sprintf("setup-%d", i)
		root := rc.tr.open(0, "setup", req, time.Now())
		var err error
		sim, comp, err = ct.compile(cfg, spec, root, req)
		rc.tr.setEnd(root, time.Now())
		return err
	})
	if err != nil {
		return nil, err
	}

	runCfg := cfg
	runCfg.Cores = cores
	mkJobs := func() []*togsim.Job {
		jobs := make([]*togsim.Job, cores)
		for c := range jobs {
			jobs[c] = comp.Job(fmt.Sprintf("%s-c%d", comp.Name, c), c, c)
		}
		return jobs
	}
	et := &engineTrace{layer: map[string]float64{}}
	var reportS float64
	o.timedLoop(rc.seconds, func(i int) error {
		req := fmt.Sprintf("op-%d", i)
		t0 := time.Now()
		var cycles int64
		switch {
		case rc.traced():
			root := rc.tr.open(0, "op", req, t0)
			res, st, err := et.run(rc.tr, runCfg, togsim.SimpleNet, mkJobs(), root, req)
			if err != nil {
				return err
			}
			cycles = res.Cycles
			if cores == 1 {
				tb := time.Now()
				buildReport(runCfg, res, &st.mem.Stats, st.noc.Flits(), tb.Sub(t0))
				reportS += time.Since(tb).Seconds()
				rc.tr.add(root, "report.build", req, tb, time.Now())
			}
			rc.tr.setEnd(root, time.Now())
		case cores == 1:
			rep, err := sim.SimulateTLS(comp, core.SimpleNet)
			if err != nil {
				return err
			}
			cycles = rep.Cycles
			buildReport(cfg, togsim.Result{Cycles: rep.Cycles, Jobs: rep.Jobs, Cores: rep.Cores}, rep.MemStats, rep.NoCFlits, rep.WallClock)
		default:
			s := togsim.NewStandard(runCfg, togsim.SimpleNet, dram.FRFCFS)
			res, err := s.Engine.Run(mkJobs())
			if err != nil {
				return err
			}
			cycles = res.Cycles
		}
		check(rc.want, o, rc.want.SimCycles, "sim_cycles", rc.name, cycles)
		return nil
	})

	if rc.traced() {
		ct.into(o.layer)
		et.into(o.layer)
		o.layer["report.build_s"] = reportS / float64(max(len(o.opMs), 1))
		if err := fig6Aside(rc, o.layer); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// buildReport renders the report ptsim prints after a run. The result is
// dropped: the benchmark only pays for building it.
func buildReport(cfg npu.Config, res togsim.Result, mem *dram.Stats, flits int64, wall time.Duration) {
	full := report.Build(cfg, report.Inputs{Res: res, Mem: mem, NoCFlits: flits, Wall: wall})
	_ = full.Summary()
}

// fig6Aside is the paper's Fig. 6 on GEMM(N): host time of ILS and of TLS
// with the simple and the cycle-accurate NoC on one compiled kernel, each
// the median of three untraced runs, then one decorated CN run for the
// crossbar's own time. Reported, never gated: on this small kernel both
// finish in a tenth of a second.
func fig6Aside(rc *runCtx, layer map[string]float64) error {
	cfg, err := modelzoo.NPUConfig(rc.prof.npu)
	if err != nil {
		return err
	}
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	comp, err := sim.Compile(exp.GEMMGraph(rc.prof.figN))
	if err != nil {
		return err
	}
	timeIt := func(name string, f func() (int64, error)) (float64, int64, error) {
		var walls []float64
		var cycles int64
		for i := 0; i < 3; i++ {
			t := time.Now()
			c, err := f()
			if err != nil {
				return 0, 0, err
			}
			cycles = c
			rc.tr.add(0, name, fmt.Sprintf("fig6-%s-%d", name, i), t, time.Now())
			walls = append(walls, time.Since(t).Seconds())
		}
		return median(walls), cycles, nil
	}
	tls := func(kind core.NetKind) func() (int64, error) {
		return func() (int64, error) {
			r, err := sim.SimulateTLS(comp, kind)
			return r.Cycles, err
		}
	}
	sn, snCycles, err := timeIt("fig6.tls_sn", tls(core.SimpleNet))
	if err != nil {
		return err
	}
	cn, _, err := timeIt("fig6.tls_cn", tls(core.CycleNet))
	if err != nil {
		return err
	}
	ils, ilsCycles, err := timeIt("fig6.ils", func() (int64, error) {
		r, _, err := sim.SimulateILS(comp, core.SimpleNet)
		return r.Cycles, err
	})
	if err != nil {
		return err
	}
	if snCycles != ilsCycles {
		return fmt.Errorf("fig6 aside: TLS %d cycles, ILS %d cycles (section 3.8 says equal)", snCycles, ilsCycles)
	}
	layer["tls_sn.wall_s"], layer["tls_cn.wall_s"], layer["ils.wall_s"] = sn, cn, ils
	layer["tls_over_ils"] = ils / sn

	et := &engineTrace{layer: map[string]float64{}}
	if _, _, err := et.run(rc.tr, cfg, togsim.CycleNet, []*togsim.Job{comp.Job(comp.Name, 0, 0)}, 0, "fig6-cn-traced"); err != nil {
		return err
	}
	layer["noc_cn.busy_s"] = et.layer["noc.busy_s"]
	layer["noc_cn.ticks"] = et.layer["noc.ticks"]
	return nil
}
