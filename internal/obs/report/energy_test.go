package report

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/npu"
	"repro/internal/togsim"
)

func sampleTotals() (npu.Config, ActivityTotals) {
	cfg := npu.SmallConfig()
	return cfg, ActivityTotals{
		Cycles:      10_000,
		SAMacCycles: 4_000, SATileLoads: 16,
		VectorCycles: 1_000, SparseCycles: 500,
		SpadReadBytes: 1 << 16, SpadWriteBytes: 1 << 17,
		DRAMActivates: 300, DRAMBytes: 1 << 20,
		NoCFlits: 2_000, LinkFlits: 100,
	}
}

// TestBuildEnergySumsExactly: the total is defined as the sum of the unit
// fields in declaration order, so equality must hold bitwise — the
// contract TestPtsimEnergySumsExactly (cmd/e2e) and the
// energy-determinism oracle re-check end to end.
func TestBuildEnergySumsExactly(t *testing.T) {
	cfg, a := sampleTotals()
	e := BuildEnergy(cfg, a)
	if e == nil {
		t.Fatal("nil energy report for a priced config")
	}
	var sum float64
	units := e.UnitMilliJ()
	if len(units) != len(EnergyUnits) {
		t.Fatalf("UnitMilliJ has %d entries, EnergyUnits %d", len(units), len(EnergyUnits))
	}
	for i, u := range units {
		if u.Unit != EnergyUnits[i] {
			t.Fatalf("unit %d is %q, want %q", i, u.Unit, EnergyUnits[i])
		}
		sum += u.MJ
	}
	if sum != e.TotalMilliJ {
		t.Fatalf("unit sum %v != total %v", sum, e.TotalMilliJ)
	}
	if e.TotalMilliJ <= 0 || e.AvgPowerW <= 0 || e.PJPerCycle <= 0 || e.AreaMM2 <= 0 {
		t.Fatalf("derived figures missing: %+v", e)
	}
}

func TestBuildEnergyZeroTableDisables(t *testing.T) {
	cfg, a := sampleTotals()
	cfg.Energy = npu.EnergyTable{}
	if e := BuildEnergy(cfg, a); e != nil {
		t.Fatalf("zero table must disable energy reporting, got %+v", e)
	}
}

// TestTotalsAggregatesJobs: run-wide totals sum per-job activity and adopt
// the memory-side counters (row misses are activations).
func TestTotalsAggregatesJobs(t *testing.T) {
	res := togsim.Result{
		Cycles: 500,
		Jobs: []togsim.JobResult{
			{Activity: togsim.Activity{SAMacCycles: 10, SpadReadBytes: 100}},
			{Activity: togsim.Activity{SAMacCycles: 5, VectorCycles: 7, SpadWriteBytes: 50}},
		},
	}
	mem := &dram.Stats{RowMisses: 42, TotalBytes: 4096}
	a := Totals(res, mem, 9, 3)
	want := ActivityTotals{
		Cycles: 500, SAMacCycles: 15, VectorCycles: 7,
		SpadReadBytes: 100, SpadWriteBytes: 50,
		DRAMActivates: 42, DRAMBytes: 4096, NoCFlits: 9, LinkFlits: 3,
	}
	if a != want {
		t.Fatalf("Totals = %+v, want %+v", a, want)
	}
	if b := Totals(res, nil, 0, 0); b.DRAMActivates != 0 || b.DRAMBytes != 0 {
		t.Fatalf("flat-latency run must report zero DRAM activity: %+v", b)
	}
}
