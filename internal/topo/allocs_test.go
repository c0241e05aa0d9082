//go:build !race

package topo_test

import (
	"testing"

	"repro/internal/npu"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// TestFabricBurstAllocs pins the topology fabric's per-burst freelists:
// once warm, 64 loads of 2 KiB spread over both packages of pkg2 (local
// and link-crossing bursts alike) must cost well under one heap object per
// burst.
func TestFabricBurstAllocs(t *testing.T) {
	tc, err := topo.Preset("pkg2", npu.TPUv3Config().Mem)
	if err != nil {
		t.Fatal(err)
	}
	f := topo.NewFabric(tc)
	const loads, bytes = 64, 2048
	reqs := make([]togsim.MemReq, loads)
	for i := range reqs {
		reqs[i] = togsim.MemReq{
			Addr:  uint64(i%2)<<tc.PkgAddrBits + uint64(i)*bytes,
			Bytes: bytes,
			Core:  i / 2 % tc.TotalCores(),
		}
	}
	var cycle int64
	run := func() {
		for i := range reqs {
			f.Submit(&reqs[i])
		}
		for done := 0; done < loads; done += len(f.Completed()) {
			if next := f.NextEvent(); next > cycle+1 {
				cycle = next - 1
				f.SkipTo(cycle)
			}
			f.Tick()
			cycle++
		}
	}
	bursts := float64(loads * bytes / tc.MemPerPackage.BurstBytes)
	if a := testing.AllocsPerRun(20, run) / bursts; a >= 0.05 {
		t.Fatalf("%.3f allocs per burst, want < 0.05: the fabric's per-burst records are no longer pooled", a)
	}
}
