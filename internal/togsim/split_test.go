package togsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/tensor"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/togsim/togsimtest"
)

// refusalCounter counts Submit calls the fabric refused after taking some
// of the request's bursts (Pending grew although Submit said "retry").
type refusalCounter struct {
	togsim.Fabric
	midRange int
}

func (c *refusalCounter) Submit(r *togsim.MemReq) bool {
	before := c.Pending()
	ok := c.Fabric.Submit(r)
	if !ok && c.Pending() > before {
		c.midRange++
	}
	return ok
}

// rangeCoverage records which request shapes a generated workload issues
// and the NoC flits its data needs: every burst crosses the NoC once,
// priced by its own size.
type rangeCoverage struct {
	unaligned, partialBurst, short, long bool
	flits                                int64
}

// randDMAJobs builds a seeded mix of DMA-heavy jobs whose ranges start off
// burst boundaries, end mid-burst, and span fewer and more bursts than the
// memory has channels.
func randDMAJobs(r *tensor.RNG, cfg npu.Config, cov *rangeCoverage) []*togsim.Job {
	burst := cfg.Mem.BurstBytes
	var jobs []*togsim.Job
	for j := 0; j < 1+r.Intn(4); j++ {
		b := tog.NewBuilder(fmt.Sprintf("j%d", j), "in", "out")
		tiles := int64(2 + r.Intn(6))
		var descs [2]npu.DMADesc
		for i := range descs {
			d := npu.DMADesc{Rows: 1 + r.Intn(8), Cols: 1 + r.Intn(40), Outer: 1 + r.Intn(2)}
			if r.Intn(2) == 0 { // strided rows: one range per row
				d.DRAMStride = d.Cols*4 + 4*(1+r.Intn(9))
			}
			d.OuterStride = d.Rows * (d.Cols*4 + 64)
			descs[i] = d
		}
		step := func(d npu.DMADesc) tog.AddrExpr {
			return tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: int64(d.TotalBytes()) * 4}}}
		}
		b.Loop("i", 0, tiles, 1)
		b.Load("in", descs[0], step(descs[0]), 0, 0)
		b.Wait(0)
		b.Compute(tog.UnitSA, int64(1+r.Intn(40)))
		b.Store("out", descs[1], step(descs[1]), 1, 0)
		if r.Intn(2) == 0 {
			b.Wait(1)
		}
		b.EndLoop()
		g, err := b.Build()
		if err != nil {
			panic(err)
		}
		// Bases sit 4..28 bytes past a burst boundary.
		in := uint64(j)<<20 + uint64(4*(1+r.Intn(7)))
		out := uint64(j)<<20 + 1<<19 + uint64(4*(1+r.Intn(7)))
		for i, d := range descs {
			for _, rg := range d.DRAMRanges(nil, [2]uint64{in, out}[i]) {
				cov.unaligned = cov.unaligned || rg.Addr%uint64(burst) != 0
				cov.partialBurst = cov.partialBurst || rg.Bytes%burst != 0
				cov.short = cov.short || rg.Bytes < cfg.Mem.Channels*burst
				cov.long = cov.long || rg.Bytes > cfg.Mem.Channels*burst
				for off := 0; off < rg.Bytes; off += burst {
					flit := cfg.NoC.FlitBytes
					cov.flits += tiles * int64((min(burst, rg.Bytes-off)+flit-1)/flit)
				}
			}
		}
		jobs = append(jobs, &togsim.Job{
			Name:    g.Name,
			TOGs:    []*tog.TOG{g},
			Bases:   []map[string]uint64{{"in": in, "out": out}},
			Core:    r.Intn(cfg.Cores),
			Src:     j,
			Arrival: int64(r.Intn(500)),
		})
	}
	return jobs
}

// TestResultsIndependentOfRequestSize runs random DMA-heavy workloads
// through the standard fabric twice, once with one request per DRAM range
// and once with every range split into single-burst requests first, on SN
// and on CN (with a NoC queue small enough to refuse stores mid-range),
// each in event and strict mode: results, DRAM stats and NoC flits must be
// identical.
func TestResultsIndependentOfRequestSize(t *testing.T) {
	var cov rangeCoverage
	midRange := 0
	for seed := uint64(1); seed <= 16; seed++ {
		r := tensor.NewRNG(seed * 0x9e3779b97f4a7c15)
		cfg := npu.SmallConfig()
		cfg.Cores = 2
		cfg.Mem.Channels = 2 << r.Intn(3)
		cfg.NoC.FlitBytes = 8 << r.Intn(3) // sub-burst flits price a short burst by its size
		cov.flits = 0
		jobs := randDMAJobs(r, cfg, &cov)
		cn := seed%2 == 0
		queue := 2 + r.Intn(6)

		type outcome struct {
			res   togsim.Result
			stats dram.Stats
			flits int64
		}
		run := func(split, strict bool) outcome {
			mem := dram.New(cfg.Mem, dram.FRFCFS)
			var net noc.Network = noc.NewSimple(cfg.NoC.FlitBytes, int64(cfg.NoC.LatencyCycle))
			if cn {
				net = noc.NewCrossbar(cfg.NoC.FlitBytes, int64(cfg.NoC.LatencyCycle), queue)
			}
			counter := &refusalCounter{Fabric: togsim.NewStdFabric(cfg, mem, net)}
			var fab togsim.Fabric = counter
			if split {
				fab = togsimtest.NewBurstSplitter(fab, cfg.Mem.BurstBytes)
			}
			eng := togsim.NewEngine(cfg, fab)
			eng.StrictTick = strict
			cp := make([]*togsim.Job, len(jobs))
			for i, j := range jobs {
				cj := *j
				cp[i] = &cj
			}
			res, err := eng.Run(cp)
			if err != nil {
				t.Fatalf("seed %d split=%v strict=%v: %v", seed, split, strict, err)
			}
			midRange += counter.midRange
			return outcome{res, mem.Stats, net.Flits()}
		}
		for _, strict := range []bool{false, true} {
			whole, split := run(false, strict), run(true, strict)
			if !reflect.DeepEqual(whole, split) {
				t.Fatalf("seed %d (cn=%v strict=%v): per-range and per-burst requests diverge\nrange: %+v\nburst: %+v",
					seed, cn, strict, whole, split)
			}
			if whole.flits != cov.flits {
				t.Fatalf("seed %d (cn=%v strict=%v): %d NoC flits, want %d", seed, cn, strict, whole.flits, cov.flits)
			}
		}
	}
	if !cov.unaligned || !cov.partialBurst || !cov.short || !cov.long {
		t.Fatalf("workloads missed a request shape: %+v", cov)
	}
	if midRange == 0 {
		t.Fatal("no store was refused mid-range: the NoC queues never filled")
	}
}
