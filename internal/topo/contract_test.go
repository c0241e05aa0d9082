package topo_test

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// contractDriver runs requests through a fabric the way the engine does —
// retrying a refused request every cycle, skipping idle cycles through
// NextEvent — and checks the togsim.Fabric contract on the way.
type contractDriver struct {
	f      togsim.Fabric
	reqs   []*togsim.MemReq
	bursts map[*togsim.MemReq]int
	cycle  int64

	// Per batch: requests not yet fully accepted, requests not yet
	// completed, and how often each was returned by Completed.
	unsent []*togsim.MemReq
	open   []*togsim.MemReq
	seen   map[*togsim.MemReq]int
	// partial counts refusals after the fabric had taken some of the
	// request's bursts.
	partial int
}

func newContractDriver(f togsim.Fabric, reqs []*togsim.MemReq, burst int) *contractDriver {
	d := &contractDriver{f: f, reqs: reqs, bursts: map[*togsim.MemReq]int{}, seen: map[*togsim.MemReq]int{}}
	for _, r := range reqs {
		d.bursts[r] = (r.Bytes + burst - 1) / burst
	}
	return d
}

// submit offers r once, counting a refusal that came after some bursts.
func (d *contractDriver) submit(r *togsim.MemReq) bool {
	before := d.f.Pending()
	if d.f.Submit(r) {
		return true
	}
	if d.f.Pending() > before {
		d.partial++
	}
	return false
}

// step advances the fabric one active cycle and checks what it completed:
// each request exactly once, and never while bursts beyond those of the
// still-open requests are in flight. A run that stops making progress
// fails instead of spinning.
func (d *contractDriver) step(t *testing.T, start int64) {
	if d.cycle-start > 1_000_000 {
		t.Fatalf("cycle %d: %d requests still open a million cycles after submission", d.cycle, len(d.open))
	}
	if len(d.unsent) == 0 {
		if next := d.f.NextEvent(); next > d.cycle+1 {
			d.cycle = next - 1
			d.f.SkipTo(d.cycle)
		}
	}
	d.f.Tick()
	d.cycle++
	for _, r := range d.f.Completed() {
		if d.seen[r]++; d.seen[r] > 1 {
			t.Fatalf("cycle %d: request %+v completed twice", d.cycle, *r)
		}
		for i, o := range d.open {
			if o == r {
				d.open = append(d.open[:i], d.open[i+1:]...)
				break
			}
		}
	}
	left := 0
	for _, r := range d.open {
		left += d.bursts[r]
	}
	if p := d.f.Pending(); p > left {
		t.Fatalf("cycle %d: %d bursts in flight, but the open requests hold only %d: a request completed before its last burst", d.cycle, p, left)
	}
}

// batch submits every request at once and runs the fabric to drain.
func (d *contractDriver) batch(t *testing.T) {
	clear(d.seen)
	d.unsent = append(d.unsent[:0], d.reqs...)
	d.open = append(d.open[:0], d.reqs...)
	for start := d.cycle; len(d.open) > 0; {
		kept := d.unsent[:0]
		for _, r := range d.unsent {
			if !d.submit(r) {
				kept = append(kept, r)
			}
		}
		d.unsent = kept
		d.step(t, start)
	}
	d.drained(t)
}

// solo runs each request alone: it must complete with nothing in flight.
func (d *contractDriver) solo(t *testing.T) {
	clear(d.seen)
	for _, r := range d.reqs {
		d.unsent = append(d.unsent[:0], r)
		d.open = append(d.open[:0], r)
		for start := d.cycle; len(d.open) > 0; {
			if len(d.unsent) > 0 && d.submit(r) {
				d.unsent = d.unsent[:0]
			}
			d.step(t, start)
		}
		if p := d.f.Pending(); p != 0 {
			t.Fatalf("request %+v completed alone with %d bursts still in flight", *r, p)
		}
	}
	d.drained(t)
}

func (d *contractDriver) drained(t *testing.T) {
	for _, r := range d.reqs {
		if d.seen[r] != 1 {
			t.Fatalf("request %+v completed %d times, want once", *r, d.seen[r])
		}
	}
	if p := d.f.Pending(); p != 0 {
		t.Fatalf("Pending() = %d at drain, want 0", p)
	}
	if late := d.f.Completed(); len(late) != 0 {
		t.Fatalf("Completed() returned %d requests after drain", len(late))
	}
}

// TestFabricContract holds both fabrics to the togsim.Fabric contract on
// multi-burst loads and stores: the standard fabric on SN and on a CN
// whose input queues are too shallow for one store, so stores are refused
// part-way, and the two-package topology fabric with local and remote
// traffic. The same request records run alone, then twice as one batch, so
// every completed request is submitted again.
func TestFabricContract(t *testing.T) {
	cfg := npu.SmallConfig()
	cfg.Cores = 2
	burst := cfg.Mem.BurstBytes
	std := func(net noc.Network) togsim.Fabric {
		for c := 0; c < cfg.Cores; c++ {
			net.SetPortWidth(c, cfg.Mem.Channels)
		}
		return togsim.NewStdFabric(cfg, dram.New(cfg.Mem, dram.FRFCFS), net)
	}
	tc, err := topo.Preset("pkg2", cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	// Requests of 1 to 9 bursts, the odd ones ending on a short burst,
	// alternating loads and stores across both cores; on pkg2, every other
	// pair lives in the second package's stack.
	reqs := func(remote uint64) []*togsim.MemReq {
		var out []*togsim.MemReq
		for i := range 10 {
			n := i%9 + 1
			r := &togsim.MemReq{
				Addr:    uint64(i) * 4096,
				Bytes:   n*burst - i%2*(burst/2),
				IsWrite: i%2 == 1,
				Src:     i % 2,
				Core:    i / 2 % 2,
			}
			if i/2%2 == 1 {
				r.Addr += remote
			}
			out = append(out, r)
		}
		return out
	}
	for _, c := range []struct {
		name        string
		fab         togsim.Fabric
		remote      uint64
		wantPartial bool
	}{
		{name: "std-sn", fab: std(noc.NewSimple(cfg.NoC.FlitBytes, int64(cfg.NoC.LatencyCycle)))},
		{name: "std-cn", fab: std(noc.NewCrossbar(cfg.NoC.FlitBytes, int64(cfg.NoC.LatencyCycle),
			2*burst/cfg.NoC.FlitBytes)), wantPartial: true},
		{name: "topo-pkg2", fab: topo.NewFabric(tc), remote: tc.PackageBase(1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newContractDriver(c.fab, reqs(c.remote), burst)
			d.solo(t)
			d.batch(t)
			d.batch(t)
			if c.wantPartial && d.partial == 0 {
				t.Fatal("no store was refused part-way: the case does not exercise the resume path")
			}
			if a := testing.AllocsPerRun(20, func() { d.batch(t) }); a != 0 {
				t.Fatalf("%.1f allocs per batch in steady state, want none", a)
			}
		})
	}
}
