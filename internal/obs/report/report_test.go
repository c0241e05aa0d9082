package report

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/npu"
	"repro/internal/togsim"
)

func sampleInputs() (npu.Config, togsim.Result, *dram.Stats) {
	cfg := npu.SmallConfig()
	cfg.FreqMHz = 1000
	cfg.Cores = 2
	res := togsim.Result{
		Cycles: 10_000,
		Jobs: []togsim.JobResult{{
			Name: "gemm", Start: 100, End: 8100,
			ComputeBusy: 4000, UnitWait: 500, DMAWait: 2500, DMABytes: 1 << 20,
		}},
		Cores: []togsim.CoreStats{
			{SABusy: 4000, VectorBusy: 1000},
			{},
		},
	}
	mem := &dram.Stats{
		Reads: 800, Writes: 200, RowHits: 700, RowMisses: 300,
		TotalBytes: int64(1000 * cfg.Mem.BurstBytes),
	}
	return cfg, res, mem
}

func TestBuild(t *testing.T) {
	cfg, res, mem := sampleInputs()
	r := Build(cfg, Inputs{Res: res, Mem: mem, Wall: 50 * time.Millisecond})

	if r.Cycles != 10_000 || r.FreqMHz != 1000 {
		t.Fatalf("header wrong: %+v", r)
	}
	if r.SimulatedMs != 0.01 {
		t.Fatalf("SimulatedMs = %v, want 0.01", r.SimulatedMs)
	}
	if len(r.Cores) != 2 || len(r.Jobs) != 1 || r.Mem == nil {
		t.Fatalf("sections missing: %+v", r)
	}
	if want := res.Cores[0].SAUtil(res.Cycles, cfg.Core.NumSAs); r.Cores[0].SAUtil != want {
		t.Fatalf("SAUtil = %v, want %v", r.Cores[0].SAUtil, want)
	}
	j := r.Jobs[0]
	if j.TotalCycles != 8000 {
		t.Fatalf("TotalCycles = %d, want 8000", j.TotalCycles)
	}
	if j.OtherCycles != 8000-4000-500-2500 {
		t.Fatalf("OtherCycles = %d", j.OtherCycles)
	}
	if j.ComputeFrac != 0.5 || j.DMAWaitFrac != 2500.0/8000 {
		t.Fatalf("fractions wrong: %+v", j)
	}
	if r.Mem.AchievedBpc <= 0 || r.Mem.PeakBpc <= 0 || r.Mem.BandwidthUtil <= 0 {
		t.Fatalf("memory bandwidth not derived: %+v", r.Mem)
	}
	if r.Mem.BandwidthUtil != r.Mem.AchievedBpc/r.Mem.PeakBpc {
		t.Fatalf("BandwidthUtil inconsistent: %+v", r.Mem)
	}
}

// TestBuildClampsOther: inconsistent inputs (waits exceeding the span) must
// clamp OtherCycles at zero rather than going negative.
func TestBuildClampsOther(t *testing.T) {
	cfg, res, _ := sampleInputs()
	res.Jobs[0].DMAWait = 100_000
	r := Build(cfg, Inputs{Res: res})
	if r.Jobs[0].OtherCycles != 0 {
		t.Fatalf("OtherCycles = %d, want clamped 0", r.Jobs[0].OtherCycles)
	}
	if r.Mem != nil {
		t.Fatal("nil dram stats must produce nil Mem section")
	}
}

// TestSummaryFormat pins the contract the end-to-end tests (cmd/e2e)
// parse: the summary starts with the cycle count, as in `TLS: <n> cycles`.
func TestSummaryFormat(t *testing.T) {
	cfg, res, mem := sampleInputs()
	r := Build(cfg, Inputs{Res: res, Mem: mem, Wall: 50 * time.Millisecond})
	s := r.Summary()
	if !regexp.MustCompile(`^10000 cycles \(0\.010 ms simulated @ 1000 MHz, 50 ms host\)$`).MatchString(s) {
		t.Fatalf("summary format drifted: %q", s)
	}
	noWall := Build(cfg, Inputs{Res: res, Mem: mem}).Summary()
	if strings.Contains(noWall, "host") {
		t.Fatalf("zero wall time must omit host clause: %q", noWall)
	}
}

func TestTextBreakdown(t *testing.T) {
	cfg, res, mem := sampleInputs()
	txt := Build(cfg, Inputs{Res: res, Mem: mem}).Text()
	for _, want := range []string{"core 0:", `job "gemm"`, "dma-stall", "DRAM:", "bandwidth"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Text missing %q:\n%s", want, txt)
		}
	}
	if strings.Contains(txt, "core 1:") {
		t.Fatalf("idle core must be omitted:\n%s", txt)
	}
}

// TestJSONRoundTrip: the report is the daemon response payload, so it must
// serialize with stable field names.
func TestJSONRoundTrip(t *testing.T) {
	cfg, res, mem := sampleInputs()
	b, err := json.Marshal(Build(cfg, Inputs{Res: res, Mem: mem}))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cycles"`, `"sa_util"`, `"dma_wait_cycles"`, `"bandwidth_util"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("JSON missing %s: %s", key, b)
		}
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != 10_000 || len(back.Jobs) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
