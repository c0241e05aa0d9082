package togsim

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/npu"
)

// TestStdFabricBackpressure fills the NoC input queues until Submit
// refuses, then drains and verifies the fabric's conservation property:
// nothing accepted is dropped, nothing completes twice, and Pending
// returns to zero.
func TestStdFabricBackpressure(t *testing.T) {
	cfg := npu.SmallConfig()
	// A tiny crossbar queue so write submissions hit backpressure fast.
	net := noc.NewCrossbar(cfg.NoC.FlitBytes, int64(cfg.NoC.LatencyCycle), 8)
	mem := dram.New(cfg.Mem, dram.FRFCFS)
	f := NewStdFabric(cfg, mem, net)

	var accepted []*MemReq
	refused := 0
	for i := 0; i < 256; i++ {
		r := &MemReq{
			Addr:    uint64(i) * uint64(cfg.Mem.BurstBytes),
			Bytes:   cfg.Mem.BurstBytes,
			IsWrite: true, // writes traverse the NoC first: the bounded path
			Core:    0,
		}
		if f.Submit(r) {
			accepted = append(accepted, r)
		} else {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("expected Submit to refuse once the NoC input queue filled")
	}
	if len(accepted) == 0 {
		t.Fatal("expected some submissions to be accepted")
	}
	if got := f.Pending(); got != len(accepted) {
		t.Fatalf("Pending = %d, want %d accepted", got, len(accepted))
	}

	// Drain: every accepted request must complete exactly once.
	seen := map[*MemReq]int{}
	for guard := 0; f.Pending() > 0; guard++ {
		if guard > 1_000_000 {
			t.Fatalf("fabric did not drain: %d pending", f.Pending())
		}
		f.Tick()
		for _, r := range f.Completed() {
			seen[r]++
		}
	}
	if f.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", f.Pending())
	}
	for _, r := range accepted {
		if seen[r] != 1 {
			t.Fatalf("request %p completed %d times, want exactly once", r, seen[r])
		}
	}
	if len(seen) != len(accepted) {
		t.Fatalf("%d distinct completions, want %d", len(seen), len(accepted))
	}

	// Refused requests may be resubmitted later and must complete too.
	r := &MemReq{Addr: 0, Bytes: cfg.Mem.BurstBytes, IsWrite: true, Core: 0}
	if !f.Submit(r) {
		t.Fatal("drained fabric must accept again")
	}
	for guard := 0; f.Pending() > 0; guard++ {
		if guard > 1_000_000 {
			t.Fatal("resubmitted request never completed")
		}
		f.Tick()
		for _, got := range f.Completed() {
			if got != r {
				t.Fatalf("unexpected completion %p", got)
			}
		}
	}
}

// TestStdFabricStagedResponses drives loads through a crossbar too small
// for their responses, so DRAM completions are refused by the NoC and wait
// in the per-port staged FIFOs: every load must still complete exactly
// once, each memory port's responses must reach the core in the order the
// DRAM finished them, and the FIFOs must end empty.
func TestStdFabricStagedResponses(t *testing.T) {
	cfg := npu.SmallConfig()
	net := noc.NewCrossbar(cfg.NoC.FlitBytes, int64(cfg.NoC.LatencyCycle), 2)
	f := NewStdFabric(cfg, dram.New(cfg.Mem, dram.FRFCFS), net)

	const n = 512
	index := map[*MemReq]int{}
	for i := 0; i < n; i++ {
		r := &MemReq{Addr: uint64(i) * uint64(cfg.Mem.BurstBytes), Bytes: cfg.Mem.BurstBytes, Core: 0}
		if !f.Submit(r) {
			t.Fatal("loads are never refused at Submit")
		}
		index[r] = i
	}
	staged := 0
	lastPerChan := map[int]int{}
	done := 0
	for guard := 0; f.Pending() > 0; guard++ {
		if guard > 1_000_000 {
			t.Fatalf("fabric did not drain: %d pending, %d staged", f.Pending(), f.stagedCnt)
		}
		f.Tick()
		if f.stagedCnt > staged {
			staged = f.stagedCnt
		}
		for _, r := range f.Completed() {
			i, ok := index[r]
			if !ok {
				t.Fatalf("request %p completed twice or was never submitted", r)
			}
			delete(index, r)
			// Sequential bursts interleave over channels, and one channel
			// serves its row hits in arrival order.
			ch := i % cfg.Mem.Channels
			if last, seen := lastPerChan[ch]; seen && i < last {
				t.Fatalf("channel %d delivered burst %d after burst %d", ch, i, last)
			}
			lastPerChan[ch] = i
			done++
		}
	}
	if done != n || len(index) != 0 {
		t.Fatalf("%d of %d loads completed", done, n)
	}
	if staged == 0 {
		t.Fatal("the crossbar never refused a response: the staged path was not exercised")
	}
	if f.stagedCnt != 0 {
		t.Fatalf("stagedCnt = %d after drain", f.stagedCnt)
	}
	for port, q := range f.stagedResp {
		if len(q) != 0 || f.stagedHead[port] != 0 {
			t.Fatalf("port %d staged FIFO not reset: len %d head %d", port, len(q), f.stagedHead[port])
		}
	}
}
