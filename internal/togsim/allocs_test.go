//go:build !race

package togsim

import (
	"runtime"
	"testing"

	"repro/internal/dram"
	"repro/internal/npu"
	"repro/internal/tog"
)

// runMallocs executes one fresh run and returns the heap allocation count
// it performed (single-goroutine measurement).
func runMallocs(t *testing.T, tiles int64) (uint64, Result) {
	t.Helper()
	cfg := npu.SmallConfig()
	cfg.Cores = 2
	s := NewStandard(cfg, SimpleNet, dram.FRFCFS)
	jobs := []*Job{
		{Name: "a", TOGs: []*tog.TOG{tiledTOG("a", tiles, 8, 128, 30, true)},
			Bases: []map[string]uint64{{"in": 0, "out": 1 << 22}}, Core: 0},
		{Name: "b", TOGs: []*tog.TOG{tiledTOG("b", tiles, 8, 128, 30, false)},
			Bases: []map[string]uint64{{"in": 1 << 23, "out": 1 << 24}}, Core: 1},
	}
	runtime.GC()
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	res, err := s.Engine.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m2)
	return m2.Mallocs - m1.Mallocs, res
}

// TestRunAllocsAmortized pins the freelists: the marginal allocation cost
// per DMA burst must stay well under one object. Without the MemReq /
// dram.Request / noc.Message pools every burst costs at least three heap
// objects, so this assertion catches any regression that reintroduces
// per-burst allocation on the event path.
func TestRunAllocsAmortized(t *testing.T) {
	small, resA := runMallocs(t, 20)
	big, resB := runMallocs(t, 220)

	burstBytes := int64(npu.SmallConfig().Mem.BurstBytes)
	extraBursts := (resB.Jobs[0].DMABytes + resB.Jobs[1].DMABytes -
		resA.Jobs[0].DMABytes - resA.Jobs[1].DMABytes) / burstBytes
	if extraBursts < 1000 {
		t.Fatalf("workload too small to measure: %d extra bursts", extraBursts)
	}
	delta := int64(big) - int64(small)
	if delta > extraBursts/2 {
		t.Fatalf("%d extra allocations for %d extra bursts (%.2f/burst); event structures are no longer pooled",
			delta, extraBursts, float64(delta)/float64(extraBursts))
	}
}

// loadAlloc executes one fresh run whose only work is a single contiguous
// load of the given size and returns the heap bytes it allocated.
func loadAlloc(t *testing.T, bytes int) uint64 {
	t.Helper()
	cfg := npu.SmallConfig()
	s := NewStandard(cfg, SimpleNet, dram.FRFCFS)
	b := tog.NewBuilder("load", "in")
	b.Load("in", npu.DMADesc{Rows: bytes / 1024, Cols: 256}, tog.AddrExpr{}, 0, 0)
	b.Wait(0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if _, err := s.Engine.RunSingle(g, map[string]uint64{"in": 0}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m2)
	return m2.TotalAlloc - m1.TotalAlloc
}

// TestFabricMemoryIndependentOfDMASize pins the fabric's late burst split:
// a DMA range is one request until its bursts reach the DRAM channel
// queues, so the records alive at once are bounded by the controller's
// queue capacity, and a 4 MiB load allocates about what a 64 KiB one does.
// Staging one record per burst up front costs tens of megabytes here.
func TestFabricMemoryIndependentOfDMASize(t *testing.T) {
	small := loadAlloc(t, 64<<10)
	big := loadAlloc(t, 4<<20)
	t.Logf("64 KiB load: %d B allocated, 4 MiB load: %d B", small, big)
	if big > small+64<<10 {
		t.Fatalf("a 4 MiB load allocated %d B, a 64 KiB load %d B: fabric memory grows with DMA size", big, small)
	}
}
