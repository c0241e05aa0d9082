// Package togsim implements Tile-Level Simulation (TLS, §3.7-3.8): it
// executes compiler-generated Tile Operation Graphs on a multi-core NPU
// model at tile granularity. Compute nodes consume offline-measured
// latencies; DMA nodes are expanded into burst-granularity requests and
// simulated online against cycle-accurate NoC and DRAM models, capturing
// the shared-resource contention that analytical models miss.
package togsim

import (
	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// MemReq is one burst-granularity memory access issued by a context's DMA.
type MemReq struct {
	Addr    uint64
	Bytes   int
	IsWrite bool
	Src     int // requestor id for fairness accounting (job source)
	Core    int // issuing core (NoC endpoint)

	owner *context
	slot  int // owner's pendingTag index for the DMA tag this burst belongs to
}

// Fabric is the memory subsystem seen by the TOG engine: it accepts burst
// requests and later reports their completion. Implementations compose NoC
// and DRAM models; the chiplet package provides a NUMA implementation.
// The embedded sim.Component contract (Tick/NextEvent/SkipTo) lets the
// engine jump the clock across cycles in which the fabric provably does
// nothing, instead of ticking it through every idle cycle.
type Fabric interface {
	sim.Component
	// Submit hands over one request; false means "retry later".
	Submit(r *MemReq) bool
	// Completed drains finished requests. The returned slice is valid
	// until the next Completed call (implementations may recycle it), and
	// after a request is returned the fabric holds no reference to it.
	Completed() []*MemReq
	// Pending reports requests in flight.
	Pending() int
}

// StdFabric is the standard single-package fabric: a NoC (SN or CN) in
// front of a multi-channel DRAM. Loads traverse: request delay -> DRAM ->
// NoC (data back to the core). Stores traverse: NoC (data to memory) ->
// DRAM. Only the data-carrying direction consumes NoC bandwidth; the
// header-only direction is a fixed pipeline delay.
type StdFabric struct {
	Mem dram.Controller
	Net noc.Network

	// Probe receives in-flight occupancy counters on obs.FabricTrack when
	// non-nil (emitted only when the value changes; never affects timing).
	Probe       obs.Probe
	lastPending int

	cores    int
	amap     dram.AddrMap // every burst is decomposed once, at Submit
	reqDelay int64

	cycle int64
	// Loads waiting out the request-path delay: due cycles are submit
	// cycle + constant, hence monotone — a single MonotonicQueue lane.
	delayed *sim.MonotonicQueue[*dram.Request]

	// Per-channel staging for DRAM submission: head-indexed FIFOs so the
	// per-cycle drain pops O(accepted) instead of shifting the whole queue
	// (under backpressure these queues hold thousands of bursts).
	toMem     [][]*dram.Request
	toMemHead []int
	toMemCnt  int

	// Per-port NoC responses refused by a full queue (head-indexed like
	// toMem), plus the total count so the hot NextEvent check is O(1).
	stagedResp [][]*noc.Message
	stagedHead []int
	stagedCnt  int

	// In-flight request registry. The fabric owns the Tag field of every
	// dram.Request / noc.Message it creates: Tag-1 indexes the slot,
	// replacing per-burst map traffic on the tick path. A store's slot also
	// holds its located dram.Request while the data crosses the NoC.
	slots     []slot
	freeSlots []int32

	delayedDue []*dram.Request // scratch for draining delayed each tick
	done       []*MemReq
	doneSpare  []*MemReq // double buffer swapped with done at Completed
	pending    int

	// Freelists for the per-burst bookkeeping records. DMA-heavy runs
	// create one dram.Request and up to one noc.Message per burst; both are
	// fully owned by the fabric once created and fully released at
	// completion, so they recycle through these pools instead of the
	// allocator (pinned by the allocs/op benchmark assertion).
	drPool  []*dram.Request
	msgPool []*noc.Message
}

type slot struct {
	r  *MemReq
	dr *dram.Request
}

// newDram takes a request record from the pool (or allocates one), fully
// reinitializes it, including the controller's private fields, and
// locates it — the burst's one address decomposition.
func (f *StdFabric) newDram(r *MemReq) *dram.Request {
	var dr *dram.Request
	if n := len(f.drPool); n > 0 {
		dr = f.drPool[n-1]
		f.drPool = f.drPool[:n-1]
	} else {
		dr = new(dram.Request)
	}
	*dr = dram.Request{Addr: r.Addr, IsWrite: r.IsWrite, Src: r.Src}
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
		delayed:    sim.NewMonotonicQueue[*dram.Request](1),
		cores:      cfg.Cores,
		amap:       dram.NewAddrMap(cfg.Mem),
		reqDelay:   int64(cfg.NoC.LatencyCycle),
		toMem:      make([][]*dram.Request, cfg.Mem.Channels),
		toMemHead:  make([]int, cfg.Mem.Channels),
		stagedResp: make([][]*noc.Message, cfg.Cores+cfg.Mem.Channels),
		stagedHead: make([]int, cfg.Cores+cfg.Mem.Channels),
	}
}

// memPort returns the NoC endpoint of the channel serving dr.
func (f *StdFabric) memPort(dr *dram.Request) int { return f.cores + dr.Channel() }

// stage queues a dram request on its channel's submission FIFO.
func (f *StdFabric) stage(dr *dram.Request) {
	ch := dr.Channel()
	f.toMem[ch] = append(f.toMem[ch], dr)
	f.toMemCnt++
}

// newSlot registers the in-flight MemReq (and, for a store, the dram
// request that follows its NoC transfer) and returns the tag carried by
// its dram.Request / noc.Message through the fabric stages.
func (f *StdFabric) newSlot(r *MemReq, dr *dram.Request) int64 {
	if n := len(f.freeSlots); n > 0 {
		i := f.freeSlots[n-1]
		f.freeSlots = f.freeSlots[:n-1]
		f.slots[i] = slot{r, dr}
		return int64(i) + 1
	}
	f.slots = append(f.slots, slot{r, dr})
	return int64(len(f.slots))
}

// takeSlot resolves a tag back to its MemReq and frees the slot.
func (f *StdFabric) takeSlot(tag int64) *MemReq {
	i := int32(tag - 1)
	r := f.slots[i].r
	f.slots[i] = slot{}
	f.freeSlots = append(f.freeSlots, i)
	return r
}

// Submit implements Fabric.
func (f *StdFabric) Submit(r *MemReq) bool {
	dr := f.newDram(r)
	if r.IsWrite {
		// Data flows core -> memory through the NoC first.
		msg := f.newMsg(r.Core, f.memPort(dr), r.Bytes)
		if !f.Net.Submit(msg) {
			f.msgPool = append(f.msgPool, msg)
			f.drPool = append(f.drPool, dr)
			return false
		}
		dr.Tag = f.newSlot(r, dr)
		msg.Tag = dr.Tag
		f.pending++
		return true
	}
	// Loads: header-only request path is a fixed delay before the DRAM.
	dr.Tag = f.newSlot(r, nil)
	f.delayed.Push(0, f.cycle+f.reqDelay, dr)
	f.pending++
	return true
}

// Tick implements Fabric.
func (f *StdFabric) Tick() {
	f.cycle++

	// Release delayed load requests into the DRAM submission queues.
	f.delayedDue = f.delayed.PopDue(f.cycle, f.delayedDue[:0])
	for _, dr := range f.delayedDue {
		f.stage(dr)
	}

	// NoC deliveries: store data reaching memory, or load data reaching the
	// core (request complete).
	f.Net.Tick()
	for _, msg := range f.Net.Completed() {
		tag := msg.Tag
		f.msgPool = append(f.msgPool, msg)
		if sl := &f.slots[tag-1]; sl.r.IsWrite {
			f.stage(sl.dr)
			sl.dr = nil
		} else {
			f.done = append(f.done, f.takeSlot(tag))
			f.pending--
		}
	}

	// Push staged requests into the DRAM controller, per channel, stopping
	// at the first refusal (the channel queue preserves FIFO order and a
	// full queue this cycle stays full for the rest of it).
	if f.toMemCnt > 0 {
		for ch := range f.toMem {
			q, h := f.toMem[ch], f.toMemHead[ch]
			for h < len(q) && f.Mem.Submit(q[h]) {
				h++
				f.toMemCnt--
			}
			f.toMem[ch], f.toMemHead[ch] = sim.CompactFIFO(q, h)
		}
	}

	// DRAM completions: loads send data back through the NoC; writes are
	// complete once the column write finishes.
	f.Mem.Tick()
	for _, dr := range f.Mem.Completed() {
		tag, port := dr.Tag, f.memPort(dr)
		f.drPool = append(f.drPool, dr)
		r := f.slots[tag-1].r
		if r.IsWrite {
			f.done = append(f.done, f.takeSlot(tag))
			f.pending--
			continue
		}
		msg := f.newMsg(port, r.Core, r.Bytes)
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
	if f.Probe != nil && f.pending != f.lastPending {
		f.Probe.Counter(obs.FabricTrack, "fabric.inflight", f.cycle, float64(f.pending))
		f.lastPending = f.pending
	}
}

// NextEvent implements Fabric. Any staged work that is retried per cycle
// (channel submission FIFOs, refused NoC responses, undrained completions)
// pins the next event to cycle+1; otherwise the fabric's next activity is
// the earliest of the request-path delay queue, the DRAM controller, and
// the NoC.
func (f *StdFabric) NextEvent() int64 {
	if len(f.done) > 0 || f.stagedCnt > 0 || f.toMemCnt > 0 {
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

// Completed implements Fabric. The returned slice is valid until the next
// Completed call: the fabric keeps two buffers and swaps them, so the
// steady state performs no allocation.
func (f *StdFabric) Completed() []*MemReq {
	out := f.done
	f.done = f.doneSpare[:0]
	f.doneSpare = out
	return out
}

// Pending implements Fabric.
func (f *StdFabric) Pending() int { return f.pending }
