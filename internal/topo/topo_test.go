package topo_test

import (
	"reflect"
	"testing"

	"repro/internal/npu"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/topo"
)

func testTopo(name string, t *testing.T) topo.Config {
	t.Helper()
	base := npu.SmallConfig()
	tc, err := topo.Preset(name, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	tc.PkgAddrBits = 24
	return tc
}

func TestPresets(t *testing.T) {
	base := npu.SmallConfig()
	for name, pkgs := range map[string]int{"single": 1, "pkg2": 2, "mesh2x2": 4, "mesh1x4": 4, "mesh4x2": 8} {
		tc, err := topo.Preset(name, base.Mem)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tc.Packages() != pkgs {
			t.Fatalf("%s: %d packages, want %d", name, tc.Packages(), pkgs)
		}
		if err := tc.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tc.MemPerPackage.Channels < 1 {
			t.Fatalf("%s: no channels", name)
		}
		if tc.MemPerPackage.Channels*tc.Packages() > base.Mem.Channels && tc.MemPerPackage.Channels != 1 {
			t.Fatalf("%s: per-package channels %d oversubscribe the %d-channel base",
				name, tc.MemPerPackage.Channels, base.Mem.Channels)
		}
	}
	if _, err := topo.Preset("donut", base.Mem); err == nil {
		t.Fatal("unknown preset must error")
	}
	// 2^64 packages overflow Packages() to 0.
	if _, err := topo.Preset("mesh4294967296x4294967296", base.Mem); err == nil {
		t.Fatal("a mesh beyond the address space must error")
	}
}

func TestRouteAndRing(t *testing.T) {
	tc := testTopo("mesh2x2", t)
	// Packages: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1).
	if got := tc.Route(0, 3); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("route 0->3 = %v", got)
	}
	if got := tc.Route(3, 0); !reflect.DeepEqual(got, []int{3, 2, 0}) {
		t.Fatalf("route 3->0 = %v", got)
	}
	if got := tc.Route(2, 2); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("route 2->2 = %v", got)
	}
	if got := tc.RingOrder(); !reflect.DeepEqual(got, []int{0, 1, 3, 2}) {
		t.Fatalf("ring order = %v", got)
	}
	if tc.RingPrev(0) != 2 || tc.RingPrev(1) != 0 || tc.RingPrev(3) != 1 || tc.RingPrev(2) != 3 {
		t.Fatalf("ring prev wrong: %d %d %d %d",
			tc.RingPrev(0), tc.RingPrev(1), tc.RingPrev(3), tc.RingPrev(2))
	}
	// Every consecutive ring pair on a 2-row mesh is a single hop.
	order := tc.RingOrder()
	for i, p := range order {
		q := order[(i+1)%len(order)]
		if hops := len(tc.Route(p, q)) - 1; hops != 1 {
			t.Fatalf("ring edge %d->%d spans %d hops", p, q, hops)
		}
	}
}

func TestAddressMap(t *testing.T) {
	tc := testTopo("mesh1x4", t)
	for p := 0; p < tc.Packages(); p++ {
		if got := tc.PackageOf(tc.PackageBase(p) + 123); got != p {
			t.Fatalf("PackageOf(base %d) = %d", p, got)
		}
	}
	if tc.PackageOf(tc.PackageBase(17)) != tc.Packages()-1 {
		t.Fatal("out-of-range addresses must clamp to the last package")
	}
	if tc.LocalOff(tc.PackageBase(2)+999) != 999 {
		t.Fatal("LocalOff must strip the package bits")
	}
	if tc.PackageOfCore(2) != 2 || tc.PackageOfCore(99) != tc.Packages()-1 {
		t.Fatal("core mapping wrong")
	}
}

// loadJob builds a load-heavy job on `core` streaming `tiles` 4 KiB tiles
// from `base`.
func loadJob(name string, core int, tiles int64, base uint64) *togsim.Job {
	b := tog.NewBuilder(name, "in")
	desc := npu.DMADesc{Rows: 8, Cols: 128}
	tileBytes := int64(desc.TotalBytes())
	b.Loop("i", 0, tiles, 1)
	b.Load("in", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: tileBytes}}}, 0, 0)
	b.Wait(0)
	b.Compute(tog.UnitSA, 20)
	b.EndLoop()
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return &togsim.Job{
		Name: name, TOGs: []*tog.TOG{g},
		Bases: []map[string]uint64{{"in": base}},
		Core:  core, Src: core,
	}
}

func runOn(t *testing.T, tc topo.Config, strict bool, jobs func() []*togsim.Job) (togsim.Result, *topo.Fabric) {
	t.Helper()
	cfg := npu.SmallConfig()
	cfg.Cores = tc.TotalCores()
	f := topo.NewFabric(tc)
	eng := togsim.NewEngine(cfg, f)
	eng.StrictTick = strict
	res, err := eng.Run(jobs())
	if err != nil {
		t.Fatal(err)
	}
	return res, f
}

// TestChainHopsCostMore: on a 1x4 chain, pulling from a 3-hop-distant stack
// must cost more cycles and more link flits than from the adjacent one.
func TestChainHopsCostMore(t *testing.T) {
	tc := testTopo("mesh1x4", t)
	near, fn := runOn(t, tc, false, func() []*togsim.Job {
		return []*togsim.Job{loadJob("near", 0, 32, tc.PackageBase(1))}
	})
	far, ff := runOn(t, tc, false, func() []*togsim.Job {
		return []*togsim.Job{loadJob("far", 0, 32, tc.PackageBase(3))}
	})
	if far.Cycles <= near.Cycles {
		t.Fatalf("3-hop remote (%d) must be slower than 1-hop (%d)", far.Cycles, near.Cycles)
	}
	if ff.LinkFlits <= fn.LinkFlits {
		t.Fatalf("3-hop transfer should serialize more flits: %d vs %d", ff.LinkFlits, fn.LinkFlits)
	}
	if fn.LocalBytes != 0 || ff.LocalBytes != 0 {
		t.Fatal("remote-only jobs must not count local bytes")
	}
}

// TestEngineModesBitIdentical: one mesh2x2 workload through the
// event-driven and the strict-tick engine must produce identical results
// and identical fabric stats.
func TestEngineModesBitIdentical(t *testing.T) {
	tc := testTopo("mesh2x2", t)
	jobs := func() []*togsim.Job {
		return []*togsim.Job{
			loadJob("a", 0, 24, tc.PackageBase(1)),
			loadJob("b", 1, 24, tc.PackageBase(3)),
			loadJob("c", 2, 24, tc.PackageBase(2)),
			loadJob("d", 3, 24, tc.PackageBase(0)),
		}
	}
	ev, fe := runOn(t, tc, false, jobs)
	st, fs := runOn(t, tc, true, jobs)
	if !reflect.DeepEqual(ev, st) {
		t.Fatalf("event vs strict diverge:\n%+v\n%+v", ev, st)
	}
	if fs.LocalBytes != fe.LocalBytes || fs.RemoteBytes != fe.RemoteBytes || fs.LinkFlits != fe.LinkFlits {
		t.Fatalf("fabric stats diverge across engine modes")
	}
	if !reflect.DeepEqual(fs.Pkg, fe.Pkg) {
		t.Fatalf("per-package stats diverge across engine modes")
	}
	if fe.RemoteBytes == 0 || fe.LinkFlits == 0 {
		t.Fatal("workload should exercise the links")
	}
}

// collJob hand-builds one rank of an expanded 2-party all-reduce: the
// region marker, then the ring schedule (pull the peer's chunk, add it
// into the local buffer, store the result), then the region end. `peer`
// is the ring predecessor's buffer base on its home package.
func collJob(name string, core int, local, peer uint64, payload int64) *togsim.Job {
	b := tog.NewBuilder(name)
	desc := npu.DMADesc{Rows: 1, Cols: int(payload)}
	b.BeginCollective(tog.AllReduce, "buf", "peer:buf", 2, payload)
	b.Load("peer:buf", desc, tog.AddrExpr{}, 1, 0)
	b.Wait(1)
	b.Compute(tog.UnitVector, payload/4)
	b.Store("buf", desc, tog.AddrExpr{}, 2, 0)
	b.Wait(2)
	b.EndCollective()
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return &togsim.Job{
		Name: name, TOGs: []*tog.TOG{g},
		Bases: []map[string]uint64{{"buf": local, "peer:buf": peer}},
		Core:  core, Src: core,
	}
}

// TestCollectiveRegionAccounting: an expanded all-reduce region runs
// bit-identically event-driven and under StrictTick, attributes its cycles to
// JobResult.CollectiveCycles, and moves bytes over the package link.
func TestCollectiveRegionAccounting(t *testing.T) {
	tc := testTopo("pkg2", t)
	const payload = 4096
	jobs := func() []*togsim.Job {
		return []*togsim.Job{
			collJob("rank0", 0, tc.PackageBase(0), tc.PackageBase(1)+1<<16, payload),
			collJob("rank1", 1, tc.PackageBase(1)+1<<16, tc.PackageBase(0), payload),
		}
	}
	ev, fe := runOn(t, tc, false, jobs)
	st, _ := runOn(t, tc, true, jobs)
	if !reflect.DeepEqual(ev, st) {
		t.Fatalf("collective diverges across engine modes:\n%+v\n%+v", ev, st)
	}
	for _, jr := range ev.Jobs {
		if jr.Collectives != 1 {
			t.Fatalf("%s: %d collective regions, want 1", jr.Name, jr.Collectives)
		}
		if jr.CollectiveCycles <= 0 || jr.CollectiveCycles > jr.End-jr.Start {
			t.Fatalf("%s: collective cycles %d outside (0, %d]", jr.Name, jr.CollectiveCycles, jr.End-jr.Start)
		}
	}
	if fe.LinkFlits == 0 || fe.RemoteBytes == 0 {
		t.Fatal("all-reduce must cross the package link")
	}
}

// TestUnexpandedCollectiveRejected: a marker the compiler never lowered
// must abort the run, not silently cost zero cycles.
func TestUnexpandedCollectiveRejected(t *testing.T) {
	tc := testTopo("pkg2", t)
	b := tog.NewBuilder("raw")
	b.BeginCollective(tog.AllReduce, "buf", "", 2, 64)
	b.EndCollective()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Nodes[0].Expanded = false
	cfg := npu.SmallConfig()
	cfg.Cores = tc.TotalCores()
	eng := togsim.NewEngine(cfg, topo.NewFabric(tc))
	_, err = eng.Run([]*togsim.Job{{
		Name: "raw", TOGs: []*tog.TOG{g},
		Bases: []map[string]uint64{{"buf": 0}}, Core: 0,
	}})
	if err == nil {
		t.Fatal("unexpanded collective must error")
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	base := npu.SmallConfig()
	good, _ := topo.Preset("pkg2", base.Mem)
	for _, mut := range []func(*topo.Config){
		func(c *topo.Config) { c.MeshX = 0 },
		func(c *topo.Config) { c.CoresPerPackage = 0 },
		func(c *topo.Config) { c.PkgAddrBits = 8 },
		func(c *topo.Config) { c.MeshX, c.MeshY = 1<<16, 1<<17 }, // 2^33 packages of 2^32 bytes
		func(c *topo.Config) { c.MemPerPackage.Channels = 0 },
		func(c *topo.Config) { c.LinkBytesPerCycle = 0 },
	} {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %+v must fail validation", c)
		}
	}
}
