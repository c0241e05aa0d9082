// Package report derives human- and machine-readable observability
// summaries from a TLS run: per-core compute-unit utilization, memory
// bandwidth utilization, and a compute/unit-wait/DMA-stall cycle breakdown
// per job. It is the single source of truth for run summaries — ptsim,
// togsim, and the ptsimd job response all render the same Report, so the
// CLI text, -json output, and daemon API can never drift apart.
package report

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/dram"
	"repro/internal/npu"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// CoreReport is one core's compute-unit utilization over the run.
type CoreReport struct {
	Core       int     `json:"core"`
	SAUtil     float64 `json:"sa_util"`
	VectorUtil float64 `json:"vector_util"`
	SparseUtil float64 `json:"sparse_util,omitempty"`
}

// JobReport is one job's cycle breakdown. The four cycle classes
// partition [Start, End): executing on a compute unit, waiting for a busy
// unit, stalled on DMA (wait nodes, drains, fabric backpressure), and
// everything else (node issue, loop bookkeeping, context scheduling).
type JobReport struct {
	Name          string  `json:"name"`
	Start         int64   `json:"start"`
	End           int64   `json:"end"`
	TotalCycles   int64   `json:"total_cycles"`
	ComputeCycles int64   `json:"compute_cycles"`
	UnitWait      int64   `json:"unit_wait_cycles"`
	DMAWait       int64   `json:"dma_wait_cycles"`
	OtherCycles   int64   `json:"other_cycles"`
	DMABytes      int64   `json:"dma_bytes"`
	ComputeFrac   float64 `json:"compute_frac"`
	DMAWaitFrac   float64 `json:"dma_wait_frac"`

	// Collective time: cycles this job spent inside collective regions
	// (all_reduce/all_gather/reduce_scatter) and how many regions ran.
	CollectiveCycles int64   `json:"collective_cycles,omitempty"`
	Collectives      int64   `json:"collectives,omitempty"`
	CollectiveFrac   float64 `json:"collective_frac,omitempty"`

	// Per-unit activity counters (see togsim.Activity).
	SAMacCycles    int64 `json:"sa_mac_cycles,omitempty"`
	SATileLoads    int64 `json:"sa_tile_loads,omitempty"`
	VectorCycles   int64 `json:"vector_cycles,omitempty"`
	SparseCycles   int64 `json:"sparse_cycles,omitempty"`
	SpadReadBytes  int64 `json:"spad_read_bytes,omitempty"`
	SpadWriteBytes int64 `json:"spad_write_bytes,omitempty"`
}

// MemReport summarizes DRAM activity and achieved bandwidth.
type MemReport struct {
	Reads         int64   `json:"reads"`
	Writes        int64   `json:"writes"`
	RowHits       int64   `json:"row_hits"`
	RowMisses     int64   `json:"row_misses"`
	RowConflicts  int64   `json:"row_conflicts"`
	TotalBytes    int64   `json:"total_bytes"`
	AchievedBpc   float64 `json:"achieved_bytes_per_cycle"`
	PeakBpc       float64 `json:"peak_bytes_per_cycle"`
	BandwidthUtil float64 `json:"bandwidth_util"`
}

// Report is the derived summary of one timing-simulation run.
type Report struct {
	Cycles      int64           `json:"cycles"`
	FreqMHz     int             `json:"freq_mhz"`
	SimulatedMs float64         `json:"simulated_ms"`
	WallMs      float64         `json:"wall_ms,omitempty"`
	Cores       []CoreReport    `json:"cores,omitempty"`
	Jobs        []JobReport     `json:"jobs,omitempty"`
	Mem         *MemReport      `json:"mem,omitempty"`
	Activity    *ActivityTotals `json:"activity,omitempty"`
	Energy      *EnergyReport   `json:"energy,omitempty"`
	Topology    *TopologyReport `json:"topology,omitempty"`
}

// Inputs bundles everything Build derives a Report from. Res is required;
// the rest default sensibly: Mem may be nil (flat-latency fabric),
// NoCFlits/LinkFlits zero when the fabric has no such model, Wall zero
// when host time was not measured.
type Inputs struct {
	Res       togsim.Result
	Mem       *dram.Stats
	NoCFlits  int64
	LinkFlits int64
	Wall      time.Duration

	// Topo, when the run used a multi-package topology fabric, yields the
	// per-package breakdown (Report.Topology). Callers still pass the
	// fabric-wide Mem/LinkFlits totals above.
	Topo *topo.Fabric
}

// Build derives a Report from an engine run and the target configuration.
func Build(cfg npu.Config, in Inputs) Report {
	res, mem := in.Res, in.Mem
	r := Report{
		Cycles:  res.Cycles,
		FreqMHz: cfg.FreqMHz,
		WallMs:  float64(in.Wall) / 1e6,
	}
	if cfg.FreqMHz > 0 {
		r.SimulatedMs = float64(res.Cycles) / float64(cfg.FreqMHz) / 1e3
	}
	for ci, cs := range res.Cores {
		cr := CoreReport{Core: ci, SAUtil: cs.SAUtil(res.Cycles, cfg.Core.NumSAs)}
		if res.Cycles > 0 {
			cr.VectorUtil = float64(cs.VectorBusy) / float64(res.Cycles)
			cr.SparseUtil = float64(cs.SparseBusy) / float64(res.Cycles)
		}
		r.Cores = append(r.Cores, cr)
	}
	for _, j := range res.Jobs {
		jr := JobReport{
			Name:          j.Name,
			Start:         j.Start,
			End:           j.End,
			TotalCycles:   j.End - j.Start,
			ComputeCycles: j.ComputeBusy,
			UnitWait:      j.UnitWait,
			DMAWait:       j.DMAWait,
			DMABytes:      j.DMABytes,

			CollectiveCycles: j.CollectiveCycles,
			Collectives:      j.Collectives,

			SAMacCycles:    j.Activity.SAMacCycles,
			SATileLoads:    j.Activity.SATileLoads,
			VectorCycles:   j.Activity.VectorCycles,
			SparseCycles:   j.Activity.SparseCycles,
			SpadReadBytes:  j.Activity.SpadReadBytes,
			SpadWriteBytes: j.Activity.SpadWriteBytes,
		}
		jr.OtherCycles = jr.TotalCycles - jr.ComputeCycles - jr.UnitWait - jr.DMAWait
		if jr.OtherCycles < 0 {
			jr.OtherCycles = 0
		}
		if jr.TotalCycles > 0 {
			jr.ComputeFrac = float64(jr.ComputeCycles) / float64(jr.TotalCycles)
			jr.DMAWaitFrac = float64(jr.DMAWait) / float64(jr.TotalCycles)
			jr.CollectiveFrac = float64(jr.CollectiveCycles) / float64(jr.TotalCycles)
		}
		r.Jobs = append(r.Jobs, jr)
	}
	if mem != nil {
		mr := &MemReport{
			Reads: mem.Reads, Writes: mem.Writes,
			RowHits: mem.RowHits, RowMisses: mem.RowMisses, RowConflicts: mem.RowConflicts,
			TotalBytes: mem.TotalBytes,
			PeakBpc:    float64(cfg.Mem.Channels * cfg.Mem.BurstBytes),
		}
		if res.Cycles > 0 {
			mr.AchievedBpc = float64(mem.TotalBytes) / float64(res.Cycles)
		}
		if mr.PeakBpc > 0 {
			mr.BandwidthUtil = mr.AchievedBpc / mr.PeakBpc
		}
		r.Mem = mr
	}
	totals := Totals(res, mem, in.NoCFlits, in.LinkFlits)
	r.Activity = &totals
	r.Energy = BuildEnergy(cfg, totals)
	if in.Topo != nil {
		r.Topology = buildTopology(cfg, res, in.Topo)
	}
	return r
}

// Clone returns a deep copy of r: the copy shares no slice element or
// pointee with r, so a caller may mutate either freely.
func (r Report) Clone() Report {
	r.Cores = slices.Clone(r.Cores)
	r.Jobs = slices.Clone(r.Jobs)
	r.Mem = clonePtr(r.Mem)
	r.Activity = clonePtr(r.Activity)
	r.Energy = clonePtr(r.Energy)
	if r.Topology != nil {
		t := *r.Topology
		t.PerPackage = slices.Clone(t.PerPackage)
		r.Topology = &t
	}
	return r
}

// clonePtr returns a pointer to a copy of *p (nil for nil).
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Summary is the one-line run summary every CLI prints (and the
// end-to-end tests in cmd/e2e parse): cycle count first, then simulated
// and host time.
func (r Report) Summary() string {
	s := fmt.Sprintf("%d cycles (%.3f ms simulated @ %d MHz", r.Cycles, r.SimulatedMs, r.FreqMHz)
	if r.WallMs > 0 {
		s += fmt.Sprintf(", %.0f ms host", r.WallMs)
	}
	return s + ")"
}

// Text renders the full multi-line breakdown: per-core utilization,
// per-job cycle classes, and DRAM bandwidth.
func (r Report) Text() string {
	var b strings.Builder
	for _, c := range r.Cores {
		if c.SAUtil == 0 && c.VectorUtil == 0 && c.SparseUtil == 0 {
			continue
		}
		fmt.Fprintf(&b, "core %d: SA %.1f%% busy, vector %.1f%% busy", c.Core, 100*c.SAUtil, 100*c.VectorUtil)
		if c.SparseUtil > 0 {
			fmt.Fprintf(&b, ", sparse %.1f%% busy", 100*c.SparseUtil)
		}
		b.WriteByte('\n')
	}
	for _, j := range r.Jobs {
		if j.TotalCycles <= 0 {
			continue
		}
		tot := float64(j.TotalCycles)
		fmt.Fprintf(&b, "job %q: %d cycles = %.1f%% compute, %.1f%% unit-wait, %.1f%% dma-stall, %.1f%% other; %.1f MB DMA",
			j.Name, j.TotalCycles,
			100*float64(j.ComputeCycles)/tot,
			100*float64(j.UnitWait)/tot,
			100*float64(j.DMAWait)/tot,
			100*float64(j.OtherCycles)/tot,
			float64(j.DMABytes)/1e6)
		if j.Collectives > 0 {
			fmt.Fprintf(&b, "; collectives %d in %d cycles (%.1f%%)",
				j.Collectives, j.CollectiveCycles, 100*float64(j.CollectiveCycles)/tot)
		}
		b.WriteByte('\n')
	}
	if m := r.Mem; m != nil {
		fmt.Fprintf(&b, "DRAM: %d reads, %d writes, row hits %d / misses %d, %.1f B/cycle of %.1f peak (%.1f%% bandwidth)\n",
			m.Reads, m.Writes, m.RowHits, m.RowMisses, m.AchievedBpc, m.PeakBpc, 100*m.BandwidthUtil)
	}
	if e := r.Energy; e != nil {
		b.WriteString(e.Text())
	}
	if t := r.Topology; t != nil {
		b.WriteString(t.Text())
	}
	return b.String()
}
