package main

import (
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/togsim"
)

// The decorators below time the calls that cross a layer boundary from
// outside the layer. Each embeds the interface it wraps, so a method the
// stack adds later passes through untimed instead of breaking the build.
// The workload turns the totals into aggregate spans after each run.
// Wrapping the fabric hides togsim.WindowFabric from the engine, which is
// harmless here because every workload uses the serial engine.
//
// Tick, NextEvent, SkipTo and Completed happen once per engine round (150
// thousand times in a resnet18 run) and every one of them is timed. Submit
// happens once per DRAM burst (3.3 million times) and takes some 60 ns;
// reading the clock around every one, on three nested interfaces, doubled
// the run time. So every Submit is counted but only one in sampleEvery is
// timed, and its time stands for the others. The period is prime so that it
// does not fall in step with DMA bursts of 8, 16 or 32 requests, whose first
// request is the expensive one.
const sampleEvery = 13

// callClock counts the calls of one method and sums or estimates their time.
type callClock struct {
	every int64 // time one call in this many; 0 means every call
	calls int64
	ns    int64
}

// sampled counts a call and reports whether it is one to time.
func (c *callClock) sampled() bool {
	c.calls++
	return c.every <= 1 || c.calls%c.every == 0
}

// time runs one call of the method, timed when it is this call's turn. Two
// clock reads are taken back to back just before the call: their distance is
// what one clock read costs here and now, and the interval from the second
// to the read after the call holds the call plus one such read. That read is
// the decorator's cost, not the layer's, so it is taken off. For a call of
// 60 ns, which a Submit is, it is half of what is measured. A sampled
// method's timed call also stands for the untimed ones.
func (c *callClock) time(call func()) {
	if !c.sampled() {
		call()
		return
	}
	t0, t1 := time.Now(), time.Now()
	call()
	c.ns += max(c.every, 1) * max(int64(time.Since(t1)-t1.Sub(t0)), 0)
}

// layerClocks are the five calls every simulated component takes from the
// layer above it (sim.Component plus Submit and Completed).
type layerClocks struct {
	submit, tick, nextEvent, skipTo, completed callClock
}

func (l *layerClocks) ns() int64 {
	return l.submit.ns + l.tick.ns + l.nextEvent.ns + l.skipTo.ns + l.completed.ns
}

type fabricDec struct {
	togsim.Fabric
	layerClocks
}

func (f *fabricDec) Submit(r *togsim.MemReq) (ok bool) {
	f.submit.time(func() { ok = f.Fabric.Submit(r) })
	return ok
}
func (f *fabricDec) Tick() { f.tick.time(f.Fabric.Tick) }
func (f *fabricDec) NextEvent() (c int64) {
	f.nextEvent.time(func() { c = f.Fabric.NextEvent() })
	return c
}
func (f *fabricDec) SkipTo(cycle int64) { f.skipTo.time(func() { f.Fabric.SkipTo(cycle) }) }
func (f *fabricDec) Completed() (out []*togsim.MemReq) {
	f.completed.time(func() { out = f.Fabric.Completed() })
	return out
}

type dramDec struct {
	dram.Controller
	layerClocks
	requests int64 // accepted submits
}

func (d *dramDec) Submit(r *dram.Request) (ok bool) {
	d.submit.time(func() { ok = d.Controller.Submit(r) })
	if ok {
		d.requests++
	}
	return ok
}
func (d *dramDec) Tick() { d.tick.time(d.Controller.Tick) }
func (d *dramDec) NextEvent() (c int64) {
	d.nextEvent.time(func() { c = d.Controller.NextEvent() })
	return c
}
func (d *dramDec) SkipTo(cycle int64) { d.skipTo.time(func() { d.Controller.SkipTo(cycle) }) }
func (d *dramDec) Completed() (out []*dram.Request) {
	d.completed.time(func() { out = d.Controller.Completed() })
	return out
}

type nocDec struct {
	noc.Network
	layerClocks
}

func (n *nocDec) Submit(m *noc.Message) (ok bool) {
	n.submit.time(func() { ok = n.Network.Submit(m) })
	return ok
}
func (n *nocDec) Tick() { n.tick.time(n.Network.Tick) }
func (n *nocDec) NextEvent() (c int64) {
	n.nextEvent.time(func() { c = n.Network.NextEvent() })
	return c
}
func (n *nocDec) SkipTo(cycle int64) { n.skipTo.time(func() { n.Network.SkipTo(cycle) }) }
func (n *nocDec) Completed() (out []*noc.Message) {
	n.completed.time(func() { out = n.Network.Completed() })
	return out
}

// tracedStack is togsim.NewStandard rebuilt with a decorator at each of the
// three interfaces the stack injects.
type tracedStack struct {
	engine *togsim.Engine
	mem    *dram.Memory
	fab    *fabricDec
	dram   *dramDec
	noc    *nocDec
}

func newTracedStack(cfg npu.Config, kind togsim.NetKind) *tracedStack {
	mem := dram.New(cfg.Mem, dram.FRFCFS)
	var net noc.Network
	if kind == togsim.CycleNet {
		net = noc.NewCrossbar(cfg.NoC.FlitBytes, int64(cfg.NoC.LatencyCycle), 4096)
	} else {
		net = noc.NewSimple(cfg.NoC.FlitBytes, int64(cfg.NoC.LatencyCycle))
	}
	for c := 0; c < cfg.Cores; c++ {
		net.SetPortWidth(c, cfg.Mem.Channels)
	}
	s := &tracedStack{mem: mem, dram: &dramDec{Controller: mem}, noc: &nocDec{Network: net}}
	s.fab = &fabricDec{Fabric: togsim.NewStdFabric(cfg, s.dram, s.noc)}
	s.fab.submit.every, s.dram.submit.every, s.noc.submit.every = sampleEvery, sampleEvery, sampleEvery
	s.engine = togsim.NewEngine(cfg, s.fab)
	return s
}

// measurerDec times the kernel measurements the compiler asks for. The
// compiler calls it from its worker goroutines, so the time is summed
// across them and can exceed the measure pass's wall time.
type measurerDec struct {
	inner compiler.Measurer
	calls atomic.Int64
	ns    atomic.Int64
}

func (m *measurerDec) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
	t := time.Now()
	c, err := m.inner.Measure(cfg, p)
	m.ns.Add(int64(time.Since(t)))
	m.calls.Add(1)
	return c, err
}
