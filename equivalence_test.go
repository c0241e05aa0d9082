// Equivalence regression: the event-driven (cycle-skipping) TLS engine
// must produce bit-identical Results to the strict per-cycle polling loop
// on real compiled workloads — the quickstart GEMM and a multi-tenant mix
// with staggered arrivals. Guards the invariant DESIGN.md's "Simulation
// kernel" section documents.
package main

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/togsim"
)

// runModes executes the same jobs on fresh setups in event-driven mode,
// strict mode, and event-driven mode with a trace probe attached, and
// requires all three Results to be identical — cycle-skipping and
// observability must both be invisible in the numbers.
func runModes(t *testing.T, kind togsim.NetKind, mkJobs func() []*togsim.Job, cores int) togsim.Result {
	t.Helper()
	cfg := benchCfg()
	if cores > 0 {
		cfg.Cores = cores
	}
	run := func(strict bool, probe obs.Probe) togsim.Result {
		s := togsim.NewStandard(cfg, kind, dram.FRFCFS)
		s.Engine.StrictTick = strict
		if probe != nil {
			s.AttachProbe(probe)
		}
		res, err := s.Engine.Run(mkJobs())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	event, strict := run(false, nil), run(true, nil)
	if !reflect.DeepEqual(event, strict) {
		t.Fatalf("event-driven engine diverges from strict ticking:\nevent:  %+v\nstrict: %+v", event, strict)
	}
	tw := obs.NewTraceWriter()
	traced := run(false, tw)
	if !reflect.DeepEqual(event, traced) {
		t.Fatalf("attaching a trace probe changed the result:\nplain:  %+v\ntraced: %+v", event, traced)
	}
	if tw.Len() == 0 {
		t.Fatal("instrumented run produced an empty trace")
	}
	return event
}

// TestEquivalenceQuickstartGEMM runs the quickstart GEMM (compiled through
// the real compiler, like examples/quickstart) under both engine modes.
func TestEquivalenceQuickstartGEMM(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: full TPUv3 GEMM under three engine modes, ~2s (DESIGN.md \"Test tiers\")")
	}
	c := compiler.New(benchCfg(), compiler.DefaultOptions())
	comp, err := c.Compile(nn.GEMM(512))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []togsim.NetKind{togsim.SimpleNet, togsim.CycleNet} {
		runModes(t, kind, func() []*togsim.Job {
			return []*togsim.Job{comp.Job("gemm", 0, 0)}
		}, 0)
	}
}

// TestEquivalenceMultiTenant co-locates two compiled GEMMs with staggered
// arrivals on separate cores (the §5.2 shape): shared-DRAM contention plus
// idle admission gaps, both of which the skip logic must not disturb.
func TestEquivalenceMultiTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: three-tenant TPUv3 mix under three engine modes, ~1s (DESIGN.md \"Test tiers\")")
	}
	cfg := benchCfg()
	cfg.Cores = 2
	c := compiler.New(cfg, compiler.DefaultOptions())
	big, err := c.Compile(nn.GEMM(512))
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.Compile(exp.GEMMRectGraph(128, 512, 512))
	if err != nil {
		t.Fatal(err)
	}
	res := runModes(t, togsim.SimpleNet, func() []*togsim.Job {
		a := big.Job("tenant-a", 0, 0)
		b := small.Job("tenant-b", 1, 1)
		b.Arrival = 50_000
		c2 := small.Job("tenant-c", 0, 2)
		c2.Arrival = 400_000
		return []*togsim.Job{a, b, c2}
	}, 2)
	if len(res.Jobs) != 3 {
		t.Fatalf("want 3 job results, got %d", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Start < 0 || j.End < j.Start {
			t.Fatalf("bad job timing: %+v", j)
		}
	}
}
