package dram

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/npu"
	"repro/internal/tensor"
)

func testCfg() npu.MemConfig {
	c := npu.SmallConfig().Mem
	return c
}

func TestSingleReadLatency(t *testing.T) {
	m := New(testCfg(), FRFCFS)
	r := &Request{Addr: 0}
	if !m.Submit(r) {
		t.Fatal("submit rejected")
	}
	done := m.Drain()
	if len(done) != 1 {
		t.Fatalf("completions = %d", len(done))
	}
	cfg := testCfg()
	// Closed bank: ACT(tRCD) + CAS(tCL) + burst.
	want := int64(cfg.TRCD+cfg.TCL) + 2
	if r.Finish < want-1 || r.Finish > want+2 {
		t.Fatalf("first read finished at %d, want ~%d", r.Finish, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := testCfg()
	// Hit: two requests to the same row.
	m1 := New(cfg, FRFCFS)
	a := &Request{Addr: 0}
	b := &Request{Addr: uint64(cfg.BurstBytes * cfg.Channels)} // same channel, same row, next burst
	m1.Submit(a)
	m1.Submit(b)
	m1.Drain()
	hitGap := b.Finish - a.Finish

	// Conflict: second request to a different row of the same bank.
	m2 := New(cfg, FRFCFS)
	c := &Request{Addr: 0}
	rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChan)
	d := &Request{Addr: rowStride} // same channel+bank, different row
	m2.Submit(c)
	m2.Submit(d)
	m2.Drain()
	confGap := d.Finish - c.Finish

	if m1.Stats.RowHits == 0 {
		t.Fatal("expected a row hit")
	}
	if m2.Stats.RowConflicts == 0 {
		t.Fatal("expected a row conflict")
	}
	if confGap <= hitGap {
		t.Fatalf("conflict gap %d must exceed hit gap %d", confGap, hitGap)
	}
}

func TestChannelParallelism(t *testing.T) {
	cfg := testCfg()
	// Requests to different channels overlap; same channel serializes on
	// the data bus.
	mSame := New(cfg, FRFCFS)
	mDiff := New(cfg, FRFCFS)
	n := 16
	chanStride := uint64(cfg.BurstBytes * cfg.Channels)
	var lastSame, lastDiff int64
	for i := 0; i < n; i++ {
		rs := &Request{Addr: uint64(i) * chanStride}             // all to channel 0
		rd := &Request{Addr: uint64(i) * uint64(cfg.BurstBytes)} // round-robin channels
		mSame.Submit(rs)
		mDiff.Submit(rd)
	}
	for _, r := range mSame.Drain() {
		if r.Finish > lastSame {
			lastSame = r.Finish
		}
	}
	for _, r := range mDiff.Drain() {
		if r.Finish > lastDiff {
			lastDiff = r.Finish
		}
	}
	if lastDiff >= lastSame {
		t.Fatalf("multi-channel (%d) must beat single-channel (%d)", lastDiff, lastSame)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	cfg := testCfg()
	m := New(cfg, FRFCFS)
	rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChan)
	// First open row 0, then submit a conflicting request (row 1) followed
	// by a row-0 hit. FR-FCFS serves the hit before the older conflict once
	// the row is open.
	opener := &Request{Addr: 0}
	m.Submit(opener)
	for m.Pending() > 0 {
		m.Tick()
		m.Completed()
	}
	conflict := &Request{Addr: rowStride}
	hit := &Request{Addr: uint64(cfg.BurstBytes * cfg.Channels)}
	m.Submit(conflict)
	m.Submit(hit)
	m.Drain()
	if hit.Finish >= conflict.Finish {
		t.Fatalf("FR-FCFS should finish the row hit (%d) before the conflict (%d)", hit.Finish, conflict.Finish)
	}

	// FCFS serves strictly in order.
	m2 := New(cfg, FCFS)
	opener2 := &Request{Addr: 0}
	m2.Submit(opener2)
	for m2.Pending() > 0 {
		m2.Tick()
		m2.Completed()
	}
	conflict2 := &Request{Addr: rowStride}
	hit2 := &Request{Addr: uint64(cfg.BurstBytes * cfg.Channels)}
	m2.Submit(conflict2)
	m2.Submit(hit2)
	m2.Drain()
	if conflict2.Finish >= hit2.Finish {
		t.Fatalf("FCFS must preserve order: conflict %d, hit %d", conflict2.Finish, hit2.Finish)
	}
}

func TestStreamingApproachesPeakBandwidth(t *testing.T) {
	cfg := testCfg()
	m := New(cfg, FRFCFS)
	// Stream 64 KiB sequentially; with row hits across channels the model
	// should achieve a large fraction of peak.
	total := 64 << 10
	for a := 0; a < total; a += cfg.BurstBytes {
		r := &Request{Addr: uint64(a)}
		for !m.Submit(r) {
			m.Tick()
			m.Completed()
		}
	}
	m.Drain()
	frac := m.AchievedBandwidth() / m.PeakBandwidth()
	if frac < 0.5 {
		t.Fatalf("streaming achieved only %.2f of peak", frac)
	}
	if m.Stats.RowHits < m.Stats.RowMisses {
		t.Fatalf("streaming should be hit-dominated: %d hits, %d misses", m.Stats.RowHits, m.Stats.RowMisses)
	}
}

func TestRandomSlowerThanStreaming(t *testing.T) {
	cfg := testCfg()
	nReq := 512
	run := func(random bool) int64 {
		m := New(cfg, FRFCFS)
		rng := tensor.NewRNG(7)
		rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChan)
		for i := 0; i < nReq; i++ {
			var addr uint64
			if random {
				addr = uint64(rng.Intn(1024))*rowStride + uint64(rng.Intn(4))*uint64(cfg.BurstBytes)
			} else {
				addr = uint64(i) * uint64(cfg.BurstBytes)
			}
			r := &Request{Addr: addr}
			for !m.Submit(r) {
				m.Tick()
				m.Completed()
			}
		}
		m.Drain()
		return m.Cycle()
	}
	stream, random := run(false), run(true)
	if random <= stream {
		t.Fatalf("random access (%d cycles) must be slower than streaming (%d)", random, stream)
	}
}

func TestQueueFullRejection(t *testing.T) {
	m := New(testCfg(), FRFCFS)
	rejected := false
	for i := 0; i < 1000; i++ {
		if !m.Submit(&Request{Addr: 0}) { // all to one channel
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("expected queue-full rejection")
	}
	if m.Stats.QueueFullStalls == 0 {
		t.Fatal("stall counter not incremented")
	}
}

func TestPerSourceAccounting(t *testing.T) {
	cfg := testCfg()
	m := New(cfg, FRFCFS)
	for i := 0; i < 8; i++ {
		m.Submit(&Request{Addr: uint64(i * cfg.BurstBytes), Src: i % 2})
	}
	m.Drain()
	if m.Stats.BytesBySrc[0] != int64(4*cfg.BurstBytes) || m.Stats.BytesBySrc[1] != int64(4*cfg.BurstBytes) {
		t.Fatalf("per-source bytes wrong: %v", m.Stats.BytesBySrc)
	}
	if m.Stats.TotalBytes != int64(8*cfg.BurstBytes) {
		t.Fatalf("total bytes = %d", m.Stats.TotalBytes)
	}
}

// Per-source bytes are accumulated densely and folded into the map when the
// controller goes idle; ids outside the dense range go to the map directly.
// Either way the map ends up exact, with no entry for a silent source.
func TestPerSourceAccountingAnySourceID(t *testing.T) {
	cfg := testCfg()
	m := New(cfg, FRFCFS)
	srcs := []int{-1, 3, 1 << 20}
	for i := 0; i < 9; i++ {
		m.Submit(&Request{Addr: uint64(i * cfg.BurstBytes), Src: srcs[i%3]})
	}
	m.Drain()
	if len(m.Stats.BytesBySrc) != len(srcs) {
		t.Fatalf("per-source map has stray entries: %v", m.Stats.BytesBySrc)
	}
	for _, src := range srcs {
		if got := m.Stats.BytesBySrc[src]; got != int64(3*cfg.BurstBytes) {
			t.Fatalf("source %d: %d bytes, want %d (%v)", src, got, 3*cfg.BurstBytes, m.Stats.BytesBySrc)
		}
	}
	// A second busy period adds to the folded totals.
	m.Submit(&Request{Addr: 0, Src: 3})
	m.Drain()
	if got := m.Stats.BytesBySrc[3]; got != int64(4*cfg.BurstBytes) {
		t.Fatalf("source 3 after a second burst: %d bytes, want %d", got, 4*cfg.BurstBytes)
	}
}

func TestAllRequestsComplete(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := testCfg()
		m := New(cfg, FRFCFS)
		rng := tensor.NewRNG(seed)
		n := 64 + rng.Intn(128)
		submitted, completed := 0, 0
		for i := 0; i < n; i++ {
			r := &Request{
				Addr:    uint64(rng.Intn(1<<20)) &^ uint64(cfg.BurstBytes-1),
				IsWrite: rng.Intn(2) == 0,
			}
			for !m.Submit(r) {
				m.Tick()
				completed += len(m.Completed())
			}
			submitted++
		}
		completed += len(m.Drain())
		return completed == submitted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSimpleModelFlatLatency(t *testing.T) {
	s := NewSimple(100)
	a := &Request{Addr: 0}
	b := &Request{Addr: 4096}
	s.Submit(a)
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	s.Submit(b)
	for s.Pending() > 0 {
		s.Tick()
		s.Completed()
	}
	if a.Finish != 100 {
		t.Fatalf("a.Finish = %d, want 100", a.Finish)
	}
	if b.Finish != 110 {
		t.Fatalf("b.Finish = %d, want 110", b.Finish)
	}
}

func TestRefreshStallsAndCounts(t *testing.T) {
	cfg := testCfg()
	cfg.TREFI = 200
	cfg.TRFC = 50
	withRef := New(cfg, FRFCFS)
	noRefCfg := cfg
	noRefCfg.TREFI = 0
	noRef := New(noRefCfg, FRFCFS)
	// Stream enough traffic to span several refresh intervals.
	total := 32 << 10
	feed := func(m *Memory) int64 {
		for a := 0; a < total; a += cfg.BurstBytes {
			r := &Request{Addr: uint64(a)}
			for !m.Submit(r) {
				m.Tick()
				m.Completed()
			}
		}
		m.Drain()
		return m.Cycle()
	}
	tRef, tNo := feed(withRef), feed(noRef)
	if withRef.Refreshes() == 0 {
		t.Fatal("no refreshes performed")
	}
	if tRef <= tNo {
		t.Fatalf("refresh must cost cycles: %d vs %d", tRef, tNo)
	}
	// Overhead should be roughly TRFC/TREFI (= 25%) of the runtime.
	overhead := float64(tRef-tNo) / float64(tNo)
	if overhead > 0.6 {
		t.Fatalf("refresh overhead implausibly high: %.2f", overhead)
	}
}

// TestSkipToHopsMatchTicking drives three controllers through the same
// traffic and idle stretches spanning several tREFI boundaries: one ticks
// every cycle, one crosses each idle stretch in a single SkipTo, one in
// many short hops (most of which contain no refresh, including after
// ticked refreshes have moved past SkipTo's lower bound). Refresh count,
// bank state, Stats and the timing of the traffic that follows must match
// exactly.
func TestSkipToHopsMatchTicking(t *testing.T) {
	cfg := testCfg()
	cfg.TREFI, cfg.TRFC = 200, 50
	ticked, jumped, hopped := New(cfg, FRFCFS), New(cfg, FRFCFS), New(cfg, FRFCFS)
	mems := []*Memory{ticked, jumped, hopped}
	hops := []int64{1, 3, 17, 64, 199, 1, 1, 250, 2}

	traffic := func(base uint64) [3][]int64 {
		var finish [3][]int64
		for i, m := range mems {
			var reqs []*Request
			for k := uint64(0); k < 12; k++ {
				r := &Request{Addr: base + k*uint64(cfg.RowBytes)*3, IsWrite: k%3 == 0, Src: int(k % 2)}
				reqs = append(reqs, r)
				for !m.Submit(r) {
					m.Tick()
					m.Completed()
				}
			}
			m.Drain()
			for _, r := range reqs {
				finish[i] = append(finish[i], r.Finish)
			}
		}
		return finish
	}
	idleTo := func(target int64) {
		for ticked.Cycle() < target {
			ticked.Tick()
		}
		jumped.SkipTo(target)
		for k := 0; hopped.Cycle() < target; k++ {
			hopped.SkipTo(min(hopped.Cycle()+hops[k%len(hops)], target))
		}
	}
	check := func(phase string) {
		t.Helper()
		for _, m := range mems[1:] {
			if m.Cycle() != ticked.Cycle() || m.Refreshes() != ticked.Refreshes() {
				t.Fatalf("%s: cycle %d, %d refreshes; ticking reached cycle %d with %d",
					phase, m.Cycle(), m.Refreshes(), ticked.Cycle(), ticked.Refreshes())
			}
			for ci := range m.chans {
				a, b := &m.chans[ci], &ticked.chans[ci]
				if a.nextRefresh != b.nextRefresh || !reflect.DeepEqual(a.banks, b.banks) {
					t.Fatalf("%s: channel %d diverges from ticking:\n%+v next refresh %d\n%+v next refresh %d",
						phase, ci, a.banks, a.nextRefresh, b.banks, b.nextRefresh)
				}
			}
			if !reflect.DeepEqual(m.Stats, ticked.Stats) {
				t.Fatalf("%s: stats diverge:\n%+v\n%+v", phase, m.Stats, ticked.Stats)
			}
		}
	}

	traffic(0)
	check("warm-up traffic")
	idleTo(ticked.Cycle() + 5*int64(cfg.TREFI) + 37)
	check("first idle stretch")
	// A jump that ends on a refresh cycle must perform that refresh.
	idleTo(ticked.chans[0].nextRefresh)
	check("idle stretch ending on a refresh")
	// Ticking through two refreshes moves every nextRefresh past the
	// bound SkipTo kept, which must not make later hops skip a refresh.
	for i := 0; i < 2*cfg.TREFI; i++ {
		for _, m := range mems {
			m.Tick()
		}
	}
	check("ticked refreshes")
	idleTo(ticked.Cycle() + 3*int64(cfg.TREFI) + 11)
	check("second idle stretch")
	f := traffic(1 << 12)
	check("traffic after idle")
	if !reflect.DeepEqual(f[1], f[0]) || !reflect.DeepEqual(f[2], f[0]) {
		t.Fatalf("request timing after idle stretches diverges: ticked %v, jumped %v, hopped %v", f[0], f[1], f[2])
	}
	if ticked.Refreshes() < 10 {
		t.Fatalf("only %d refreshes: the stretches do not span enough tREFI periods", ticked.Refreshes())
	}
}

// TestAddrMapShiftsMatchDivision: on configs whose burst size, channel
// count, bursts per row and bank count are all powers of two, the address
// map shifts and masks; every address must land on the channel, bank and
// row the division path gives. A config with one non-power-of-two field
// must keep dividing.
func TestAddrMapShiftsMatchDivision(t *testing.T) {
	odd := npu.SmallConfig().Mem
	odd.Channels = 3
	oddRow := npu.TPUv3Config().Mem
	oddRow.RowBytes = 96 * oddRow.BurstBytes
	cases := []struct {
		name string
		cfg  npu.MemConfig
		pow2 bool
	}{
		{"tpuv3", npu.TPUv3Config().Mem, true},
		{"small", npu.SmallConfig().Mem, true},
		{"3-channel", odd, false},
		{"96-burst-row", oddRow, false},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		m := NewAddrMap(tc.cfg)
		if m.pow2 != tc.pow2 {
			t.Fatalf("%s: shift path selected = %v, want %v", tc.name, m.pow2, tc.pow2)
		}
		div := m
		div.pow2 = false
		for i := 0; i < 100000; i++ {
			addr := rng.Uint64() >> uint(rng.Intn(64))
			ch, bk, row := m.decompose(addr)
			wch, wbk, wrow := div.decompose(addr)
			if ch != wch || bk != wbk || row != wrow {
				t.Fatalf("%s: addr %#x decomposes to ch %d bank %d row %d, division gives %d %d %d",
					tc.name, addr, ch, bk, row, wch, wbk, wrow)
			}
			if got := m.Channel(addr); got != wch {
				t.Fatalf("%s: Channel(%#x) = %d, division gives %d", tc.name, addr, got, wch)
			}
		}
	}
}
