// Package togsim implements Tile-Level Simulation (TLS, §3.7-3.8): it
// executes compiler-generated Tile Operation Graphs on a multi-core NPU
// model at tile granularity. Compute nodes consume offline-measured
// latencies; DMA nodes become one memory request per contiguous DRAM
// range, simulated online burst by burst against cycle-accurate NoC and
// DRAM models, capturing the shared-resource contention that analytical
// models miss.
package togsim

import (
	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// MemReq is one contiguous DRAM range of a DMA (one npu.Range), with
// Bytes > 0. The fabric splits it into bursts of the memory's burst size,
// burst k starting k·BurstBytes after Addr, and reports the request once,
// when its last burst completes.
type MemReq struct {
	Addr    uint64
	Bytes   int
	IsWrite bool
	Src     int // requestor id for fairness accounting (job source)
	Core    int // issuing core (NoC endpoint)

	owner *context
	slot  int // owner's pendingTag index for the DMA tag this request belongs to

	tag  int64 // the InFlight tag while a fabric holds the request, else 0
	sent int   // StdFabric: a store's bursts the NoC accepted so far
}

// Fabric is the memory subsystem seen by the TOG engine: it accepts memory
// requests and later reports their completion. Implementations compose NoC
// and DRAM models; the chiplet package provides a NUMA implementation.
// The embedded sim.Component contract (Tick/NextEvent/SkipTo) lets the
// engine jump the clock across cycles in which the fabric provably does
// nothing, instead of ticking it through every idle cycle.
type Fabric interface {
	sim.Component
	// Submit hands over one request; false means "retry later". A fabric
	// may take some of a request's bursts before refusing the rest; the
	// retry of the same request resumes where it stopped.
	Submit(r *MemReq) bool
	// Completed drains finished requests. The returned slice is valid
	// until the next Completed call (implementations may recycle it), and
	// after a request is returned the fabric holds no reference to it.
	Completed() []*MemReq
	// Pending reports bursts in flight.
	Pending() int
}

// StdFabric is the standard single-package fabric: a NoC (SN or CN) in
// front of a multi-channel DRAM. Loads traverse: request delay -> DRAM ->
// NoC (data back to the core). Stores traverse: NoC (data to memory) ->
// DRAM. Only the data-carrying direction consumes NoC bandwidth; the
// header-only direction is a fixed pipeline delay.
//
// A request is split into bursts as late as each stage allows: a load
// crosses the request delay whole, and each burst gets its dram.Request
// only at the head of its channel's queue; a store sends its bursts into
// the NoC one by one. Burst k of a request at address A maps to channel
// (A/BurstBytes + k) mod Channels, so a channel's bursts of one request
// form a run BurstBytes·Channels bytes apart, and queueing runs in release
// order keeps every channel's burst order — and with it the timing —
// exactly that of per-burst submission.
type StdFabric struct {
	InFlight
	Mem dram.Controller
	Net noc.Network

	// Probe receives in-flight occupancy counters on obs.FabricTrack when
	// non-nil (emitted only when the value changes; never affects timing).
	Probe obs.Probe

	cores    int
	channels int
	burst    int          // bytes per burst
	stride   uint64       // bytes between a run's consecutive bursts
	amap     dram.AddrMap // every burst is decomposed once, at its channel head
	reqDelay int64

	cycle int64
	// Loads waiting out the request-path delay: due cycles are submit
	// cycle + constant, hence monotone — a single MonotonicQueue lane.
	delayed *sim.MonotonicQueue[*MemReq]

	// Per-channel staging for DRAM submission: head-indexed FIFOs of runs,
	// so the per-cycle drain pops O(accepted) and the queues grow with
	// requests, not bursts. toMemReq holds a channel's located head burst
	// across the controller's refusals.
	toMem     [][]run
	toMemHead []int
	toMemReq  []*dram.Request
	toMemCnt  int // runs staged over all channels

	// Per-port NoC responses refused by a full queue (head-indexed like
	// toMem), plus the total count so the hot NextEvent check is O(1).
	stagedResp [][]*noc.Message
	stagedHead []int
	stagedCnt  int

	// The fabric owns the Tag field of every dram.Request / noc.Message it
	// creates. A DRAM burst or a load's response carries its request's
	// InFlight tag; a store burst crossing the NoC (a message from a core
	// port) carries a wire tag, naming the one-burst run it stages on
	// arrival.
	wires sim.Registry[run]

	delayedDue []*MemReq // scratch for draining delayed each tick

	// Freelist of NoC messages, up to one per burst, recycled like the
	// InFlight table's dram.Requests.
	msgPool []*noc.Message
}

// run is one channel's share of a request: left bursts, the first at addr
// and each further one stride bytes on.
type run struct {
	tag  int64 // the request's InFlight tag
	addr uint64
	left int
}

// newDram makes the controller request for the head burst of rn and
// locates it — the burst's one address decomposition.
func (f *StdFabric) newDram(rn *run) *dram.Request {
	r := f.Req(rn.tag)
	dr := f.NewDram(dram.Request{Addr: rn.addr, IsWrite: r.IsWrite, Src: r.Src, Tag: rn.tag})
	f.amap.Locate(dr)
	return dr
}

func (f *StdFabric) newMsg(src, dst, bytes int) *noc.Message {
	if n := len(f.msgPool); n > 0 {
		msg := f.msgPool[n-1]
		f.msgPool = f.msgPool[:n-1]
		*msg = noc.Message{Src: src, Dst: dst, Bytes: bytes}
		return msg
	}
	return &noc.Message{Src: src, Dst: dst, Bytes: bytes}
}

// NewStdFabric builds the standard fabric from an NPU config, a DRAM
// controller, and a network model.
func NewStdFabric(cfg npu.Config, mem dram.Controller, net noc.Network) *StdFabric {
	return &StdFabric{
		Mem:        mem,
		Net:        net,
		delayed:    sim.NewMonotonicQueue[*MemReq](1),
		cores:      cfg.Cores,
		channels:   cfg.Mem.Channels,
		burst:      cfg.Mem.BurstBytes,
		stride:     uint64(cfg.Mem.Channels * cfg.Mem.BurstBytes),
		amap:       dram.NewAddrMap(cfg.Mem),
		reqDelay:   int64(cfg.NoC.LatencyCycle),
		toMem:      make([][]run, cfg.Mem.Channels),
		toMemHead:  make([]int, cfg.Mem.Channels),
		toMemReq:   make([]*dram.Request, cfg.Mem.Channels),
		stagedResp: make([][]*noc.Message, cfg.Cores+cfg.Mem.Channels),
		stagedHead: make([]int, cfg.Cores+cfg.Mem.Channels),
	}
}

// bursts is the number of bursts r splits into.
func (f *StdFabric) bursts(r *MemReq) int { return (r.Bytes + f.burst - 1) / f.burst }

// burstBytes is the size of r's burst starting at addr (the last one may
// be short).
func (f *StdFabric) burstBytes(r *MemReq, addr uint64) int {
	return min(f.burst, int(r.Addr+uint64(r.Bytes)-addr))
}

// stage queues a run on channel ch's submission FIFO.
func (f *StdFabric) stage(ch int, rn run) {
	f.toMem[ch] = append(f.toMem[ch], rn)
	f.toMemCnt++
}

// release stages a load request whose request-path delay has elapsed: one
// run for each channel its bursts map to.
func (f *StdFabric) release(r *MemReq) {
	n := f.bursts(r)
	first := f.amap.Channel(r.Addr)
	for k := 0; k < n && k < f.channels; k++ {
		f.stage((first+k)%f.channels, run{
			tag:  r.tag,
			addr: r.Addr + uint64(k*f.burst),
			left: (n - k + f.channels - 1) / f.channels,
		})
	}
}

// Submit implements Fabric.
func (f *StdFabric) Submit(r *MemReq) bool {
	n := f.bursts(r)
	if !r.IsWrite {
		// Loads: header-only request path is a fixed delay before the DRAM.
		f.Open(r, n)
		f.delayed.Push(0, f.cycle+f.reqDelay, r)
		f.Issue(n)
		return true
	}
	// Stores: each burst's data flows core -> memory through the NoC
	// first. A refusal leaves r.sent at the refused burst.
	for ; r.sent < n; r.sent++ {
		addr := r.Addr + uint64(r.sent*f.burst)
		ch := f.amap.Channel(addr)
		msg := f.newMsg(r.Core, f.cores+ch, f.burstBytes(r, addr))
		if !f.Net.Submit(msg) {
			f.msgPool = append(f.msgPool, msg)
			return false
		}
		if r.tag == 0 {
			f.Open(r, n)
		}
		msg.Tag = f.wires.Add(run{tag: r.tag, addr: addr, left: 1})
		f.Issue(1)
	}
	r.sent = 0 // the record may be submitted again once it completes
	return true
}

// Tick implements Fabric.
func (f *StdFabric) Tick() {
	f.cycle++

	// Release delayed load requests into the DRAM submission queues.
	f.delayedDue = f.delayed.PopDue(f.cycle, f.delayedDue[:0])
	for _, r := range f.delayedDue {
		f.release(r)
	}

	// NoC deliveries: store data reaching memory, or load data reaching the
	// core (burst complete).
	f.Net.Tick()
	for _, msg := range f.Net.Completed() {
		tag, src, dst := msg.Tag, msg.Src, msg.Dst
		f.msgPool = append(f.msgPool, msg)
		if src < f.cores {
			f.stage(dst-f.cores, f.wires.Take(tag))
		} else {
			f.BurstDone(tag)
		}
	}

	// Push staged bursts into the DRAM controller, per channel, stopping
	// at the first refusal (the channel queue preserves FIFO order and a
	// full queue this cycle stays full for the rest of it).
	if f.toMemCnt > 0 {
		for ch := range f.toMem {
			f.submitChannel(ch)
		}
	}

	// DRAM completions: loads send data back through the NoC; writes are
	// complete once the column write finishes.
	f.Mem.Tick()
	for _, dr := range f.Mem.Completed() {
		tag, port, addr, write := dr.Tag, f.cores+dr.Channel(), dr.Addr, dr.IsWrite
		f.FreeDram(dr)
		if write {
			f.BurstDone(tag)
			continue
		}
		r := f.Req(tag)
		msg := f.newMsg(port, r.Core, f.burstBytes(r, addr))
		msg.Tag = tag
		// The NoC response port may be busy; stage in the port's FIFO (it
		// must drain in order behind earlier responses).
		if len(f.stagedResp[port]) > 0 || !f.Net.Submit(msg) {
			f.stagedResp[msg.Src] = append(f.stagedResp[msg.Src], msg)
			f.stagedCnt++
		}
	}
	// Retry staged responses, per port, stopping at the first refusal.
	f.retryResponses()
	if f.Probe != nil {
		f.ProbePending(f.Probe, obs.FabricTrack, "fabric.inflight", f.cycle)
	}
}

// submitChannel hands channel ch's staged bursts to the controller in
// order until it refuses one, which stays located at the head.
func (f *StdFabric) submitChannel(ch int) {
	q, h := f.toMem[ch], f.toMemHead[ch]
	for h < len(q) {
		dr := f.toMemReq[ch]
		if dr == nil {
			dr = f.newDram(&q[h])
		}
		if !f.Mem.Submit(dr) {
			f.toMemReq[ch] = dr
			break
		}
		f.toMemReq[ch] = nil
		if rn := &q[h]; rn.left > 1 {
			rn.left--
			rn.addr += f.stride
		} else {
			h++
			f.toMemCnt--
		}
	}
	f.toMem[ch], f.toMemHead[ch] = sim.CompactFIFO(q, h)
}

// NextEvent implements Fabric. Any staged work that is retried per cycle
// (channel submission FIFOs, refused NoC responses, undrained completions)
// pins the next event to cycle+1; otherwise the fabric's next activity is
// the earliest of the request-path delay queue, the DRAM controller, and
// the NoC.
func (f *StdFabric) NextEvent() int64 {
	if f.Undrained() || f.stagedCnt > 0 || f.toMemCnt > 0 {
		return f.cycle + 1
	}
	next := sim.Earliest(f.delayed.NextCycle(), f.Mem.NextEvent(), f.Net.NextEvent())
	if next <= f.cycle {
		return f.cycle + 1
	}
	return next
}

// SkipTo implements Fabric, advancing the composed NoC and DRAM clocks in
// lock-step with the fabric's own.
func (f *StdFabric) SkipTo(cycle int64) {
	f.cycle = cycle
	f.Net.SkipTo(cycle)
	f.Mem.SkipTo(cycle)
}

var _ Fabric = (*StdFabric)(nil)

func (f *StdFabric) retryResponses() {
	if f.stagedCnt == 0 {
		return
	}
	for src, q := range f.stagedResp {
		h := f.stagedHead[src]
		for h < len(q) && f.Net.Submit(q[h]) {
			h++
			f.stagedCnt--
		}
		f.stagedResp[src], f.stagedHead[src] = sim.CompactFIFO(q, h)
	}
}
