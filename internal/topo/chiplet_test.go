package topo_test

// The §5.4 chiplet scenario on the topology fabric: a multi-chiplet NPU
// is a chain of single-core packages, each with its own HBM stack, joined
// by a narrow off-chip link.

import (
	"testing"

	"repro/internal/npu"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// chipletTopo mirrors the paper's setup at 940 MHz: two chiplets, 20 ns
// (~19 cycles) link latency, 32 GB/s (~34 B/cycle) per direction, and no
// extra on-package NoC latency.
func chipletTopo(mem npu.MemConfig) topo.Config {
	return topo.Config{
		Name:              "chiplet",
		MeshX:             2,
		MeshY:             1,
		CoresPerPackage:   1,
		MemPerPackage:     mem,
		PkgAddrBits:       24, // 16 MiB per chiplet keeps test addresses small
		LinkLatency:       19,
		LinkBytesPerCycle: 34,
	}
}

func chipCfg() (npu.Config, topo.Config) {
	base := npu.SmallConfig()
	base.Cores = 2
	return base, chipletTopo(base.Mem)
}

// dmaJob builds a load-heavy job on the given core reading `tiles` tiles
// from tensor "in" and (when withStore) writing to "out".
func dmaJob(name string, core int, tiles int64, inBase, outBase uint64, withStore bool) *togsim.Job {
	b := tog.NewBuilder(name, "in", "out")
	desc := npu.DMADesc{Rows: 8, Cols: 128} // 4 KiB tiles
	tileBytes := int64(desc.TotalBytes())
	b.Loop("i", 0, tiles, 1)
	b.Load("in", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: tileBytes}}}, 0, 0)
	b.Wait(0)
	b.Compute(tog.UnitSA, 20)
	if withStore {
		b.Store("out", desc, tog.AddrExpr{Terms: []tog.AddrTerm{{Var: "i", Coeff: tileBytes}}}, 1, 0)
	}
	b.EndLoop()
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return &togsim.Job{
		Name:  name,
		TOGs:  []*tog.TOG{g},
		Bases: []map[string]uint64{{"in": inBase, "out": outBase}},
		Core:  core,
		Src:   core,
	}
}

func runJobs(t *testing.T, base npu.Config, cc topo.Config, jobs []*togsim.Job) (int64, *topo.Fabric) {
	t.Helper()
	f := topo.NewFabric(cc)
	eng := togsim.NewEngine(base, f)
	res, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles, f
}

func TestLocalFasterThanRemote(t *testing.T) {
	base, cc := chipCfg()
	local, fl := runJobs(t, base, cc, []*togsim.Job{
		dmaJob("local", 0, 64, cc.PackageBase(0), cc.PackageBase(0)+(1<<20), false),
	})
	remote, fr := runJobs(t, base, cc, []*togsim.Job{
		dmaJob("remote", 0, 64, cc.PackageBase(1), cc.PackageBase(1)+(1<<20), false),
	})
	if remote <= local {
		t.Fatalf("remote traffic (%d) must be slower than local (%d)", remote, local)
	}
	if fl.RemoteBytes != 0 {
		t.Fatalf("local job produced remote bytes: %d", fl.RemoteBytes)
	}
	if fr.LocalBytes != 0 {
		t.Fatalf("remote job produced local bytes: %d", fr.LocalBytes)
	}
	// The link (34 B/cycle) is narrower than local HBM (64 B/cycle): expect
	// a substantial slowdown on a bandwidth-bound read stream.
	if float64(remote)/float64(local) < 1.3 {
		t.Fatalf("remote slowdown only %.2fx", float64(remote)/float64(local))
	}
}

func TestMixedTrafficSplitsBytes(t *testing.T) {
	base, cc := chipCfg()
	// in local, out remote: both counters must move, and the run must be
	// slower than a pure-local load-only stream (the remote stores ride the
	// narrow link).
	mixed, fm := runJobs(t, base, cc, []*togsim.Job{
		dmaJob("mixed", 0, 64, cc.PackageBase(0), cc.PackageBase(1)+(1<<20), true),
	})
	localLoads, _ := runJobs(t, base, cc, []*togsim.Job{
		dmaJob("local", 0, 64, cc.PackageBase(0), cc.PackageBase(0)+(1<<20), false),
	})
	if mixed <= localLoads {
		t.Fatalf("mixed load+remote-store (%d) must exceed local load-only (%d)", mixed, localLoads)
	}
	if fm.LocalBytes == 0 || fm.RemoteBytes == 0 {
		t.Fatalf("mixed job should split traffic: local %d remote %d", fm.LocalBytes, fm.RemoteBytes)
	}
}

func TestTwoChipletCoresRunConcurrently(t *testing.T) {
	base, cc := chipCfg()
	solo, _ := runJobs(t, base, cc, []*togsim.Job{
		dmaJob("a", 0, 64, cc.PackageBase(0), cc.PackageBase(0)+(1<<20), false),
	})
	both, _ := runJobs(t, base, cc, []*togsim.Job{
		dmaJob("a", 0, 64, cc.PackageBase(0), cc.PackageBase(0)+(1<<20), false),
		dmaJob("b", 1, 64, cc.PackageBase(1), cc.PackageBase(1)+(1<<20), false),
	})
	// All-local jobs on separate chiplets should barely interfere.
	if float64(both) > float64(solo)*1.3 {
		t.Fatalf("local jobs on separate chiplets should overlap: solo %d, both %d", solo, both)
	}
}

func TestLinkContentionBetweenCores(t *testing.T) {
	base, cc := chipCfg()
	// Both cores read remotely in the same direction pattern; the shared
	// link directions serialize.
	soloRemote, _ := runJobs(t, base, cc, []*togsim.Job{
		dmaJob("r0", 0, 64, cc.PackageBase(1), cc.PackageBase(0)+(1<<20), false),
	})
	bothRemote, _ := runJobs(t, base, cc, []*togsim.Job{
		dmaJob("r0", 0, 64, cc.PackageBase(1), cc.PackageBase(0)+(1<<20), false),
		dmaJob("r1", 1, 64, cc.PackageBase(0), cc.PackageBase(1)+(1<<20), false),
	})
	// Opposite directions: the data paths are independent per direction, so
	// the two jobs largely overlap (each direction still carries the other
	// flow's request headers, so perfect overlap is not expected).
	if float64(bothRemote) > float64(soloRemote)*1.8 {
		t.Fatalf("opposite-direction remote jobs should mostly overlap: %d vs %d", bothRemote, soloRemote)
	}
	if bothRemote < soloRemote {
		t.Fatalf("shared link cannot make things faster: %d vs %d", bothRemote, soloRemote)
	}
}
