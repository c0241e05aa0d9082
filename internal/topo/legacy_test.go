package topo_test

// This file pins the refactor invariant of the topology layer: the old
// chiplet-specific fabric implementation (pre-internal/topo, reproduced
// below as legacyFabric, reading its parameters from a topo.Config) and topo.Fabric configured as an N×1
// single-core-package chain must be bit-identical — same cycle counts,
// same per-job results, same traffic stats — on arbitrary workloads. The
// §5.4 experiment additionally pins absolute cycle numbers in
// testdata/golden/fig9.txt (internal/exp's TestFig9Quick).

import (
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/togsim"
	"repro/internal/togsim/togsimtest"
	"repro/internal/topo"
)

// legacyFabric is the pre-topology chiplet fabric, kept only as a test
// oracle.
type legacyFabric struct {
	cfg   topo.Config
	mems  []*dram.Memory
	cycle int64

	linkFree [][]int64

	toMem   [][]legacyStaged
	returns sim.EventQueue[*togsim.MemReq]
	byDram  map[*dram.Request]*togsim.MemReq
	done    []*togsim.MemReq
	pending int

	LocalBytes, RemoteBytes int64
	LinkFlits               int64
}

type legacyStaged struct {
	at  int64
	req *dram.Request
	mr  *togsim.MemReq
}

func newLegacyFabric(cfg topo.Config) *legacyFabric {
	f := &legacyFabric{
		cfg:    cfg,
		byDram: map[*dram.Request]*togsim.MemReq{},
		toMem:  make([][]legacyStaged, cfg.Packages()),
	}
	for i := 0; i < cfg.Packages(); i++ {
		f.mems = append(f.mems, dram.New(cfg.MemPerPackage, dram.FRFCFS))
	}
	f.linkFree = make([][]int64, cfg.Packages())
	for i := range f.linkFree {
		f.linkFree[i] = make([]int64, cfg.Packages())
	}
	return f
}

func (f *legacyFabric) chipletOf(addr uint64) int {
	ch := int(addr >> f.cfg.PkgAddrBits)
	if ch >= f.cfg.Packages() {
		ch = f.cfg.Packages() - 1
	}
	return ch
}

func (f *legacyFabric) linkDelay(a, b int, bytes int, now int64) int64 {
	start := now
	if t := f.linkFree[a][b]; t > start {
		start = t
	}
	ser := int64(bytes) / f.cfg.LinkBytesPerCycle
	if ser < 1 {
		ser = 1
	}
	f.LinkFlits += ser
	f.linkFree[a][b] = start + ser
	return start + ser + f.cfg.LinkLatency
}

func (f *legacyFabric) Submit(r *togsim.MemReq) bool {
	src := r.Core % f.cfg.Packages()
	dst := f.chipletOf(r.Addr)
	local := src == dst

	if local {
		f.LocalBytes += int64(r.Bytes)
	} else {
		f.RemoteBytes += int64(r.Bytes)
	}

	dr := &dram.Request{
		Addr:    r.Addr & (1<<f.cfg.PkgAddrBits - 1),
		IsWrite: r.IsWrite,
		Src:     r.Src,
	}
	f.byDram[dr] = r
	at := f.cycle + 1
	if !local {
		bytes := 8
		if r.IsWrite {
			bytes = r.Bytes
		}
		at = f.linkDelay(src, dst, bytes, f.cycle)
	}
	f.toMem[dst] = append(f.toMem[dst], legacyStaged{at: at, req: dr, mr: r})
	f.pending++
	return true
}

func (f *legacyFabric) Tick() {
	f.cycle++
	for ch := range f.toMem {
		q := f.toMem[ch]
		i := 0
		for ; i < len(q); i++ {
			if q[i].at > f.cycle {
				break
			}
			if !f.mems[ch].Submit(q[i].req) {
				break
			}
		}
		if i > 0 {
			f.toMem[ch] = append(q[:0], q[i:]...)
		}
	}

	for ch, m := range f.mems {
		m.Tick()
		for _, dr := range m.Completed() {
			r := f.byDram[dr]
			delete(f.byDram, dr)
			if r == nil {
				continue
			}
			src := r.Core % f.cfg.Packages()
			if src == ch || r.IsWrite {
				f.done = append(f.done, r)
				f.pending--
				continue
			}
			at := f.linkDelay(ch, src, r.Bytes, f.cycle)
			if at <= f.cycle {
				at = f.cycle + 1
			}
			f.returns.Push(at, r)
		}
	}
	n := len(f.done)
	f.done = f.returns.PopDue(f.cycle, f.done)
	f.pending -= len(f.done) - n
}

func (f *legacyFabric) NextEvent() int64 {
	if len(f.done) > 0 {
		return f.cycle + 1
	}
	next := f.returns.NextCycle()
	for ch := range f.toMem {
		if q := f.toMem[ch]; len(q) > 0 {
			at := q[0].at
			if at <= f.cycle {
				return f.cycle + 1
			}
			if at < next {
				next = at
			}
		}
	}
	for _, m := range f.mems {
		if e := m.NextEvent(); e < next {
			next = e
		}
	}
	if next <= f.cycle {
		return f.cycle + 1
	}
	return next
}

func (f *legacyFabric) SkipTo(cycle int64) {
	f.cycle = cycle
	for _, m := range f.mems {
		m.SkipTo(cycle)
	}
}

func (f *legacyFabric) Completed() []*togsim.MemReq {
	out := f.done
	f.done = nil
	return out
}

func (f *legacyFabric) Pending() int { return f.pending }

var _ togsim.Fabric = (*legacyFabric)(nil)

// randChipletJobs builds a seeded random multi-core job mix with local and
// remote loads/stores in both directions.
func randChipletJobs(r *tensor.RNG, cc topo.Config, cores int) []*togsim.Job {
	var jobs []*togsim.Job
	n := 1 + r.Intn(3)
	for j := 0; j < n; j++ {
		core := r.Intn(cores)
		inCh := r.Intn(cc.Packages())
		outCh := r.Intn(cc.Packages())
		tiles := 4 + int64(r.Intn(24))
		job := dmaJob("j", core, tiles,
			cc.PackageBase(inCh)+uint64(j)<<18,
			cc.PackageBase(outCh)+(1<<20)+uint64(j)<<18,
			r.Intn(2) == 0)
		job.Name = job.Name + string(rune('0'+j))
		job.Arrival = int64(r.Intn(3000))
		jobs = append(jobs, job)
	}
	return jobs
}

// TestTopoFabricMatchesLegacyChiplet holds the new topology fabric against
// the pre-refactor implementation: identical Result structs (cycles,
// per-job spans and counters) and identical traffic stats, across random
// workloads and both event-driven and strict engines. The comparison is
// the two-chiplet §5.4 configuration — the case the refactor must preserve
// bit-exactly. (Beyond two packages the models legitimately differ: the
// legacy fabric pretended every chiplet pair had a direct link, while the
// topology fabric routes multi-hop through the mesh.)
func TestTopoFabricMatchesLegacyChiplet(t *testing.T) {
	base, _ := chipCfg()
	for seed := uint64(1); seed <= 12; seed++ {
		r := tensor.NewRNG(seed * 0x9e3779b97f4a7c15)
		cc := chipletTopo(base.Mem)
		cfg := base
		jobs := randChipletJobs(r, cc, cfg.Cores)
		strict := seed%2 == 0

		run := func(f togsim.Fabric) togsim.Result {
			eng := togsim.NewEngine(cfg, f)
			eng.StrictTick = strict
			// Jobs are mutated by the engine (result bookkeeping), so each
			// run gets a fresh copy.
			cp := make([]*togsim.Job, len(jobs))
			for i, j := range jobs {
				cj := *j
				cp[i] = &cj
			}
			res, err := eng.Run(cp)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}

		// The legacy fabric takes one burst per request, as the engine
		// issued them before a request covered a whole DRAM range.
		leg := newLegacyFabric(cc)
		legRes := run(togsimtest.NewBurstSplitter(leg, cc.MemPerPackage.BurstBytes))
		neu := topo.NewFabric(cc)
		neuRes := run(neu)

		if !reflect.DeepEqual(legRes, neuRes) {
			t.Fatalf("seed %d: results diverge\nlegacy: %+v\ntopo:   %+v", seed, legRes, neuRes)
		}
		if leg.LocalBytes != neu.LocalBytes || leg.RemoteBytes != neu.RemoteBytes || leg.LinkFlits != neu.LinkFlits {
			t.Fatalf("seed %d: stats diverge: legacy local/remote/flits %d/%d/%d, topo %d/%d/%d",
				seed, leg.LocalBytes, leg.RemoteBytes, leg.LinkFlits,
				neu.LocalBytes, neu.RemoteBytes, neu.LinkFlits)
		}
	}
}

// TestTopoPerPackageStatsSum checks the per-package split partitions the
// fabric-wide totals exactly.
func TestTopoPerPackageStatsSum(t *testing.T) {
	base, cc := chipCfg()
	f := topo.NewFabric(cc)
	eng := togsim.NewEngine(base, f)
	jobs := []*togsim.Job{
		dmaJob("a", 0, 32, cc.PackageBase(1), cc.PackageBase(0)+(1<<20), true),
		dmaJob("b", 1, 32, cc.PackageBase(1), cc.PackageBase(0)+(1<<20), true),
	}
	if _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	var local, remote, flits int64
	for _, p := range f.Pkg {
		local += p.LocalBytes
		remote += p.RemoteBytes
		flits += p.LinkFlits
	}
	if local != f.LocalBytes || remote != f.RemoteBytes || flits != f.LinkFlits {
		t.Fatalf("per-package stats do not sum: %d/%d/%d vs totals %d/%d/%d",
			local, remote, flits, f.LocalBytes, f.RemoteBytes, f.LinkFlits)
	}
	if f.LinkFlits == 0 || f.RemoteBytes == 0 {
		t.Fatal("remote workload should cross the link")
	}
}
