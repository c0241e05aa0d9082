package e2e

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/report"
)

// gemm64 is the small GEMM every end-to-end cycle comparison runs.
var gemm64 = []string{"-model", "gemm", "-n", "64", "-small"}

// pkg2Tensor is the two-package tensor-parallel decode step.
var pkg2Tensor = []string{"-model", "decoder-tiny", "-ctx", "8", "-small", "-topology", "pkg2", "-parallel", "tensor"}

// A multi-package run takes the same funnel as a single-package one, so
// the run knobs apply to it: -max-cycles bounds it, -trace records it, and
// -json renders its topology section.
func TestPtsimTopologyRunHonoursRunFlags(t *testing.T) {
	ptsim := buildCmd(t, "cmd/ptsim")
	if _, stderr, err := run(ptsim, append(pkg2Tensor, "-max-cycles", "100")...); err == nil {
		t.Fatal("-max-cycles 100 must abort a ~10k-cycle run with a non-zero exit")
	} else if !strings.Contains(stderr, "exceeded max cycles (100)") || !strings.Contains(stderr, "unfinished") {
		t.Fatalf("want the deadlock diagnostic on stderr, got %q", stderr)
	}

	trace := filepath.Join(t.TempDir(), "pkg2.trace.json")
	mustRun(t, ptsim, append(pkg2Tensor, "-trace", trace)...)
	checkTrace(t, trace, true)

	var rep report.Report
	runJSON(t, &rep, ptsim, append(pkg2Tensor, "-json")...)
	if rep.Topology == nil {
		t.Fatal("want a topology section in the -json report")
	}

	if _, _, err := run(ptsim, append(pkg2Tensor, "-autotune")...); err == nil {
		t.Fatal("-autotune stays unsupported on multi-package topologies")
	}
}

// ptsim validates its flags, with the daemon's resolver for the spec,
// before it compiles anything: a run ptsimd would reject at admission, or
// one ptsim cannot do, never starts.
func TestPtsimRejectsBeforeCompiling(t *testing.T) {
	ptsim := buildCmd(t, "cmd/ptsim")
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-max-cycles", "-1"}, "negative max_cycles"},
		{[]string{"-net", "xyz"}, `unknown net "xyz"`},
		{[]string{"-dma", "xyz"}, `unknown dma mode "xyz"`},
		{[]string{"-model", "nope"}, `unknown model "nope"`},
		{[]string{"-mode", "xyz"}, `unknown mode "xyz"`},
		{[]string{"-mode", "ils", "-autotune"}, "-autotune require -mode tls"},
	} {
		stdout, stderr, err := run(ptsim, append(gemm64, tc.flags...)...)
		if err == nil {
			t.Errorf("%v: want a non-zero exit", tc.flags)
			continue
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: want %q on stderr, got %q", tc.flags, tc.want, stderr)
		}
		if strings.Contains(stdout, "compiled") {
			t.Errorf("%v: rejected only after compiling:\n%s", tc.flags, stdout)
		}
	}
}

// Both simulation modes run on the same stack, so -max-cycles bounds an ILS
// run exactly as it bounds a TLS run.
func TestPtsimMaxCyclesBoundsEveryMode(t *testing.T) {
	ptsim := buildCmd(t, "cmd/ptsim")
	for _, mode := range []string{"tls", "ils"} {
		stdout, stderr, err := run(ptsim, append(gemm64, "-mode", mode, "-max-cycles", "10")...)
		if err == nil {
			t.Errorf("-mode %s: -max-cycles 10 must abort a ~35k-cycle run with a non-zero exit:\n%s", mode, stdout)
			continue
		}
		if !strings.Contains(stderr, "exceeded max cycles (10)") {
			t.Errorf("-mode %s: want the max-cycles diagnostic on stderr, got %q", mode, stderr)
		}
	}
}

// Probes never perturb the simulation: a traced run has the plain run's
// cycle count, and its trace carries every track including power over
// time (TestPtsimTopologyRunHonoursRunFlags checks a multi-package trace).
func TestPtsimTraceKeepsCycles(t *testing.T) {
	ptsim := buildCmd(t, "cmd/ptsim")
	plain := tlsCycles(t, mustRun(t, ptsim, gemm64...))
	gemmTrace := filepath.Join(t.TempDir(), "gemm.trace.json")
	traced := tlsCycles(t, mustRun(t, ptsim, append(gemm64, "-trace", gemmTrace)...))
	if plain != traced {
		t.Fatalf("tracing changed the cycle count: %d plain vs %d traced", plain, traced)
	}
	checkTrace(t, gemmTrace, true)
}

// Two runs against one -cache-dir give identical cycles, and the warm run
// takes every kernel latency from the disk store instead of measuring it.
func TestPtsimWarmCacheMeasuresNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("two 512-GEMM runs (~6s)")
	}
	ptsim := buildCmd(t, "cmd/ptsim")
	args := []string{"-model", "gemm", "-n", "512", "-small", "-cache-dir", filepath.Join(t.TempDir(), "cache")}
	cold := mustRun(t, ptsim, args...)
	warm := mustRun(t, ptsim, args...)
	if c1, c2 := tlsCycles(t, cold), tlsCycles(t, warm); c1 != c2 {
		t.Fatalf("cycles diverge with a warm cache: %d vs %d", c1, c2)
	}
	if n := countBefore(t, cold, " unique kernels measured"); n == 0 {
		t.Fatalf("cold run measured no kernels:\n%s", cold)
	}
	if n := countBefore(t, warm, " unique kernels measured"); n != 0 {
		t.Fatalf("warm run re-measured %d kernels:\n%s", n, warm)
	}
	if hits := countBefore(t, warm, " hits,"); hits == 0 {
		t.Fatalf("warm run reported no disk hits:\n%s", warm)
	}
}

// The per-unit energies of a run sum bitwise, in report.EnergyUnits
// order, to its total, which is positive, and compute activity is counted.
func TestPtsimEnergySumsExactly(t *testing.T) {
	var rep report.Report
	runJSON(t, &rep, buildCmd(t, "cmd/ptsim"), append(gemm64, "-json")...)
	act, en := rep.Activity, rep.Energy
	if act == nil || en == nil {
		t.Fatalf("want activity and energy sections, got %+v and %+v", act, en)
	}
	if act.SAMacCycles+act.VectorCycles == 0 {
		t.Fatalf("no compute activity counted: %+v", *act)
	}
	checkEnergySum(t, *en)
	if en.TotalMilliJ <= 0 {
		t.Fatalf("total energy must be positive: %+v", *en)
	}
}

// checkEnergySum requires en's unit energies, added in report.EnergyUnits
// order, to reproduce TotalMilliJ bitwise.
func checkEnergySum(t *testing.T, en report.EnergyReport) {
	t.Helper()
	units := en.UnitMilliJ()
	if len(units) != len(report.EnergyUnits) {
		t.Fatalf("%d unit energies, want %d (%v)", len(units), len(report.EnergyUnits), report.EnergyUnits)
	}
	total := 0.0
	for i, u := range units {
		if u.Unit != report.EnergyUnits[i] {
			t.Fatalf("unit %d is %q, want %q", i, u.Unit, report.EnergyUnits[i])
		}
		total += u.MJ
	}
	if total != en.TotalMilliJ {
		t.Fatalf("unit energies sum to %v, total_mj is %v", total, en.TotalMilliJ)
	}
}

// A tensor-parallel decode step over two packages moves link traffic and
// reports a breakdown whose per-package counters sum exactly to the
// topology totals.
func TestPtsimTopologyBreakdownSumsExactly(t *testing.T) {
	var rep report.Report
	runJSON(t, &rep, buildCmd(t, "cmd/ptsim"), append(pkg2Tensor, "-json")...)
	topo := rep.Topology
	if topo == nil {
		t.Fatal("no topology section in the report")
	}
	if topo.Packages != 2 || topo.Name != "pkg2" {
		t.Fatalf("want a 2-package pkg2 topology, got %q x%d", topo.Name, topo.Packages)
	}
	if len(topo.PerPackage) != 2 {
		t.Fatalf("want 2 per-package entries, got %d", len(topo.PerPackage))
	}
	if topo.LinkFlits <= 0 {
		t.Fatal("tensor-parallel run moved zero link flits")
	}
	var remote, collCycles, colls, flits int64
	energy := 0.0
	for _, p := range topo.PerPackage {
		remote += p.RemoteBytes
		collCycles += p.CollectiveCycles
		colls += p.Collectives
		flits += p.LinkFlits
		energy += p.EnergyMilliJ
	}
	if remote <= 0 {
		t.Fatal("ring collectives transferred zero remote bytes")
	}
	if collCycles != topo.CollectiveCycles || colls != topo.Collectives || flits != topo.LinkFlits {
		t.Fatalf("per-package sums (collective cycles %d, collectives %d, link flits %d) != topology totals (%d, %d, %d)",
			collCycles, colls, flits, topo.CollectiveCycles, topo.Collectives, topo.LinkFlits)
	}
	// The topology energy is the in-order sum of the package energies.
	if energy != topo.EnergyMilliJ {
		t.Fatalf("per-package energies sum to %v, topology energy_mj is %v", energy, topo.EnergyMilliJ)
	}
	if topo.EnergyMilliJ <= 0 {
		t.Fatal("topology energy must be positive")
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("want 2 placed ranks, got %d", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Collectives <= 0 || j.CollectiveCycles <= 0 {
			t.Fatalf("rank %s reports no collective regions: %+v", j.Name, j)
		}
	}
}
