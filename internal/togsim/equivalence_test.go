package togsim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/npu"
	"repro/internal/tog"
)

// runBothModes executes the same job set under the event-driven engine,
// which steps only the cores that are due and skips the fabric over cycles
// it has no work in, and under the strict per-cycle polling loop, which
// steps every core and ticks the fabric on every cycle (fresh setup each
// time — engines and fabrics are stateful). It asserts the Results are
// bit-identical: total cycles, per-job Start/End/busy/bytes, and per-core
// unit stats.
func runBothModes(t *testing.T, mkSetup func() *Setup, mkJobs func() []*Job) Result {
	t.Helper()
	event := mkSetup()
	evRes, err := event.Engine.Run(mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	strict := mkSetup()
	strict.Engine.StrictTick = true
	stRes, err := strict.Engine.Run(mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evRes, stRes) {
		t.Fatalf("event-driven result diverges from strict ticking:\nevent:  %+v\nstrict: %+v", evRes, stRes)
	}
	return evRes
}

func TestEquivalenceComputeOnly(t *testing.T) {
	runBothModes(t, smallSetup, func() []*Job {
		return []*Job{{
			Name:  "c",
			TOGs:  []*tog.TOG{computeOnlyTOG("c", 10, 5000, tog.UnitSA)},
			Bases: []map[string]uint64{{"x": 0}},
		}}
	})
}

func TestEquivalenceTiledDMA(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		runBothModes(t, smallSetup, func() []*Job {
			return []*Job{{
				Name:  "t",
				TOGs:  []*tog.TOG{tiledTOG("t", 16, 8, 128, 200, prefetch)},
				Bases: []map[string]uint64{{"in": 0, "out": 1 << 20}},
			}}
		})
	}
}

func TestEquivalenceCycleNet(t *testing.T) {
	mk := func() *Setup { return NewStandard(npu.SmallConfig(), CycleNet, dram.FRFCFS) }
	runBothModes(t, mk, func() []*Job {
		return []*Job{{
			Name:  "t",
			TOGs:  []*tog.TOG{tiledTOG("t", 16, 8, 128, 50, true)},
			Bases: []map[string]uint64{{"in": 0, "out": 1 << 20}},
		}}
	})
}

func TestEquivalenceFlatLatency(t *testing.T) {
	mk := func() *Setup { return NewFlatLatency(npu.SmallConfig(), 100) }
	runBothModes(t, mk, func() []*Job {
		return []*Job{{
			Name:  "t",
			TOGs:  []*tog.TOG{tiledTOG("t", 8, 2, 16, 10, false)},
			Bases: []map[string]uint64{{"in": 0, "out": 1 << 20}},
		}}
	})
}

// TestEquivalenceMultiTenant staggers jobs across cores and arrival times
// (the §5.2 multi-tenancy shape), including a gap long enough that the
// event engine skips millions of cycles between arrivals.
func TestEquivalenceMultiTenant(t *testing.T) {
	cfg := npu.SmallConfig()
	cfg.Cores = 2
	mk := func() *Setup { return NewStandard(cfg, SimpleNet, dram.FRFCFS) }
	mkJobs := func() []*Job {
		return []*Job{
			{Name: "a", TOGs: []*tog.TOG{tiledTOG("a", 16, 8, 64, 40, false)},
				Bases: []map[string]uint64{{"in": 0, "out": 1 << 22}}, Core: 0, Src: 0},
			{Name: "b", TOGs: []*tog.TOG{computeOnlyTOG("b", 20, 300, tog.UnitVector)},
				Bases: []map[string]uint64{{"x": 0}}, Core: 0, Src: 1, Arrival: 2000},
			{Name: "c", TOGs: []*tog.TOG{tiledTOG("c", 8, 8, 64, 40, true)},
				Bases: []map[string]uint64{{"in": 1 << 23, "out": 1 << 24}}, Core: 1, Src: 2, Arrival: 2_000_000},
			{Name: "d", TOGs: []*tog.TOG{computeOnlyTOG("d", 3, 1_000_000, tog.UnitSA)},
				Bases: []map[string]uint64{{"x": 0}}, Core: 1, Src: 3},
		}
	}
	res := runBothModes(t, mk, mkJobs)
	if res.Cycles < 3_000_000 {
		t.Fatalf("workload too short to exercise skipping: %d cycles", res.Cycles)
	}
}

// contentionJobs builds one DMA-heavy job per core, all hammering nearby
// DRAM regions with staggered arrivals, so the cores couple tightly
// through fabric contention and are due on different cycles.
func contentionJobs(cores int) []*Job {
	jobs := make([]*Job, 0, cores)
	for ci := 0; ci < cores; ci++ {
		jobs = append(jobs, &Job{
			Name:    "j" + string(rune('a'+ci)),
			TOGs:    []*tog.TOG{tiledTOG("j", 12, 8, 128, 30, ci%2 == 0)},
			Bases:   []map[string]uint64{{"in": uint64(ci) << 14, "out": 1<<22 + uint64(ci)<<14}},
			Core:    ci,
			Src:     ci,
			Arrival: int64(ci * 97),
		})
	}
	return jobs
}

// TestEquivalenceContention: tightly coupled multi-core workloads, on both
// interconnect models (the crossbar refuses submissions under pressure).
// A zero-latency NoC makes a submission due in the fabric on the cycle it
// is made, which the event-driven loop must notice before skipping the
// fabric over that cycle.
func TestEquivalenceContention(t *testing.T) {
	for _, net := range []NetKind{SimpleNet, CycleNet} {
		for _, latency := range []int{2, 0} {
			for _, cores := range []int{1, 2, 4, 8} {
				cfg := npu.SmallConfig()
				cfg.Cores = cores
				cfg.NoC.LatencyCycle = latency
				runBothModes(t, func() *Setup { return NewStandard(cfg, net, dram.FRFCFS) },
					func() []*Job { return contentionJobs(cores) })
			}
		}
	}
}

// TestEquivalenceResident is the scratchpad-resident shape: eight cores
// run long chains of short compute nodes and touch DRAM only at tile
// boundaries, so most cycles have one core due and an idle fabric, and
// the run spans many tREFI periods the skipped fabric must replay.
func TestEquivalenceResident(t *testing.T) {
	cfg := npu.SmallConfig()
	cfg.Cores = 8
	cfg.Mem.TREFI, cfg.Mem.TRFC = 3000, 120
	mk := func() *Setup { return NewStandard(cfg, SimpleNet, dram.FRFCFS) }
	mkJobs := func() []*Job {
		var jobs []*Job
		for c := 0; c < cfg.Cores; c++ {
			b := tog.NewBuilder("resident", "in", "out")
			desc := npu.DMADesc{Rows: 4, Cols: 128}
			b.Loop("i", 0, 4, 1)
			b.Load("in", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 4096}}}, 0, 0)
			b.Wait(0)
			for k := 0; k < 32; k++ {
				b.Compute(tog.UnitSA, int64(120+c))
				b.Compute(tog.UnitVector, 40)
			}
			b.Store("out", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 4096}}}, 1, 0)
			b.EndLoop()
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, &Job{
				Name: "resident", TOGs: []*tog.TOG{g},
				Bases: []map[string]uint64{{"in": uint64(c) << 20, "out": uint64(c)<<20 + (1 << 16)}},
				Core:  c, Src: c,
			})
		}
		return jobs
	}
	res := runBothModes(t, mk, mkJobs)
	if res.Cycles < 2*int64(cfg.Mem.TREFI) {
		t.Fatalf("workload shorter than two refresh periods: %d cycles", res.Cycles)
	}
}

// TestEquivalenceRefresh pins DRAM refresh behaviour: the idle stretch of
// a long compute node spans many tREFI periods, so SkipTo must replay the
// same refreshes per-cycle ticking performs, leaving identical bank state
// for the DMA burst that follows.
func TestEquivalenceRefresh(t *testing.T) {
	cfg := npu.SmallConfig()
	if cfg.Mem.TREFI == 0 {
		cfg.Mem.TREFI = 3000
		cfg.Mem.TRFC = 120
	}
	mk := func() *Setup { return NewStandard(cfg, SimpleNet, dram.FRFCFS) }
	mkJobs := func() []*Job {
		desc := npu.DMADesc{Rows: 4, Cols: 128}
		b := tog.NewBuilder("r", "in", "out")
		b.Loop("i", 0, 6, 1)
		b.Load("in", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 4096}}}, 0, 0)
		b.Wait(0)
		b.Compute(tog.UnitSA, 50_000) // long idle gap spanning several tREFI
		b.Store("out", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: 4096}}}, 1, 0)
		b.EndLoop()
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return []*Job{{Name: "r", TOGs: []*tog.TOG{g}, Bases: []map[string]uint64{{"in": 0, "out": 1 << 20}}}}
	}
	res := runBothModes(t, mk, mkJobs)
	if res.Cycles < 6*50_000 {
		t.Fatalf("compute gaps missing: %d cycles", res.Cycles)
	}
	// The skipped run must still have performed the refreshes.
	ev := mk()
	evRes, err := ev.Engine.Run(mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	if want := evRes.Cycles / int64(cfg.Mem.TREFI); ev.Mem.Refreshes() < want-1 {
		t.Fatalf("refreshes = %d, want about %d over %d cycles", ev.Mem.Refreshes(), want, evRes.Cycles)
	}
}

// blackholeFabric accepts every request and never completes any — a
// deliberately broken memory system for exercising deadlock reporting.
type blackholeFabric struct{ pending int }

func (b *blackholeFabric) Submit(r *MemReq) bool { b.pending++; return true }
func (b *blackholeFabric) Tick()                 {}
func (b *blackholeFabric) NextEvent() int64      { return 1 << 62 }
func (b *blackholeFabric) SkipTo(cycle int64)    {}
func (b *blackholeFabric) Completed() []*MemReq  { return nil }
func (b *blackholeFabric) Pending() int          { return b.pending }

// TestDeadlockErrorIsDiagnosable: a run that cannot finish must name the
// stuck job and its oldest pending DMA rather than only a cycle count.
func TestDeadlockErrorIsDiagnosable(t *testing.T) {
	cfg := npu.SmallConfig()
	b := tog.NewBuilder("stuck", "in")
	b.Load("in", npu.DMADesc{Rows: 1, Cols: 64}, tog.AddrExpr{}, 2, 0)
	b.Wait(2) // the black-hole fabric never answers: waits forever
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mkJobs := func() []*Job {
		return []*Job{{Name: "stuck", TOGs: []*tog.TOG{g}, Bases: []map[string]uint64{{"in": 0}}}}
	}
	for _, strict := range []bool{false, true} {
		eng := NewEngine(cfg, &blackholeFabric{})
		eng.StrictTick = strict
		eng.MaxCycles = 10_000
		_, err = eng.Run(mkJobs())
		if err == nil {
			t.Fatalf("strict=%v: expected deadlock error", strict)
		}
		msg := err.Error()
		for _, want := range []string{`"stuck"`, "DMA tag 2", "oldest issued at cycle"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("strict=%v: deadlock error %q missing %q", strict, msg, want)
			}
		}
	}
	// A job that can never be admitted before MaxCycles is reported too.
	eng := NewEngine(cfg, &blackholeFabric{})
	eng.MaxCycles = 10_000
	_, err = eng.Run([]*Job{{Name: "late", TOGs: []*tog.TOG{g},
		Bases: []map[string]uint64{{"in": 0}}, Arrival: 1 << 40}})
	if err == nil || !strings.Contains(err.Error(), `job "late" queued`) {
		t.Fatalf("queued-job deadlock not diagnosable: %v", err)
	}
}
