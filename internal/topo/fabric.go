package topo

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/togsim"
)

// PackageStats is one package's traffic roll-up: bytes its cores moved to
// the local stack, bytes they moved to remote stacks, link serialization
// slots on out-edges of this package, and DMA cycles its local controller
// observed. Per-package energy derivation consumes exactly these counters.
type PackageStats struct {
	LocalBytes  int64
	RemoteBytes int64
	// LinkFlits counts serialization slots (LinkBytesPerCycle bytes each,
	// minimum one per edge traversal) on links leaving this package, so
	// summing over packages gives the fabric-wide LinkFlits exactly.
	LinkFlits int64
}

// Fabric implements togsim.Fabric over the topology tree: one FR-FCFS
// DRAM controller per package and per-direction occupancy on every mesh
// link, with remote requests store-and-forwarded hop by hop along the
// deterministic X-then-Y route. With two packages it reproduces the
// pre-topology chiplet fabric bit-identically (its timing rules are a
// superset: a direct link is a one-hop route).
type Fabric struct {
	togsim.InFlight
	cfg   Config
	mems  []*dram.Memory
	cycle int64

	// Per-direction link occupancy: linkFree[from][to], allocated for every
	// ordered package pair but only neighbour entries are ever used.
	linkFree [][]int64

	// routes[a][b] is the package sequence of the a->b route.
	routes [][][]int

	// Per-package FIFOs of requests staged for DRAM submission after link
	// traversal, head-indexed so each tick pops O(released) instead of
	// shifting the whole queue, and the queue of load data returning over
	// the links.
	toMem     [][]stagedReq
	toMemHead []int
	returns   sim.EventQueue[int64] // InFlight tags of loads returning
	// A burst's dram.Request carries the tag of its burst record.
	bursts   sim.Registry[burstRec]
	returned []int64 // reused buffer for draining returns each tick

	// Stats (fabric-wide; Pkg holds the per-package split).
	LocalBytes, RemoteBytes int64
	// LinkFlits counts link serialization slots (LinkBytesPerCycle bytes
	// each, minimum one per hop), all edges and directions summed.
	LinkFlits int64
	Pkg       []PackageStats

	// Probe receives link traffic and occupancy counters on obs.LinkTrack
	// when non-nil (change-triggered; never affects timing).
	Probe     obs.Probe
	lastBytes int64
	lastFlits int64
}

type stagedReq struct {
	at  int64
	req *dram.Request
}

// burstRec is one burst in flight: its request's InFlight tag and its size.
type burstRec struct {
	slot  int64
	bytes int
}

// NewFabric builds the topology fabric with FR-FCFS controllers. The
// config must validate.
func NewFabric(cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("topo.NewFabric: %v", err))
	}
	p := cfg.Packages()
	f := &Fabric{
		cfg:       cfg,
		toMem:     make([][]stagedReq, p),
		toMemHead: make([]int, p),
		Pkg:       make([]PackageStats, p),
	}
	for i := 0; i < p; i++ {
		f.mems = append(f.mems, dram.New(cfg.MemPerPackage, dram.FRFCFS))
	}
	f.linkFree = make([][]int64, p)
	f.routes = make([][][]int, p)
	for i := range f.linkFree {
		f.linkFree[i] = make([]int64, p)
		f.routes[i] = make([][]int, p)
		for j := range f.routes[i] {
			f.routes[i][j] = cfg.Route(i, j)
		}
	}
	return f
}

// Config returns the topology this fabric was built from.
func (f *Fabric) Config() Config { return f.cfg }

// Mem returns package p's DRAM controller (for stats).
func (f *Fabric) Mem(p int) *dram.Memory { return f.mems[p] }

// MemTotals sums every package controller's DRAM stats (for fabric-wide
// bandwidth and energy accounting).
func (f *Fabric) MemTotals() *dram.Stats {
	var t dram.Stats
	for _, m := range f.mems {
		t.Reads += m.Stats.Reads
		t.Writes += m.Stats.Writes
		t.RowHits += m.Stats.RowHits
		t.RowMisses += m.Stats.RowMisses
		t.RowConflicts += m.Stats.RowConflicts
		t.TotalBytes += m.Stats.TotalBytes
		t.BusyCycles += m.Stats.BusyCycles
		t.QueueFullStalls += m.Stats.QueueFullStalls
	}
	return &t
}

// linkDelay accounts a transfer of n bytes along the route from package a
// to package b (store-and-forward per hop), returning the arrival time.
func (f *Fabric) linkDelay(a, b int, bytes int, now int64) int64 {
	t := now
	route := f.routes[a][b]
	for h := 0; h+1 < len(route); h++ {
		from, to := route[h], route[h+1]
		start := t
		if free := f.linkFree[from][to]; free > start {
			start = free
		}
		ser := int64(bytes) / f.cfg.LinkBytesPerCycle
		if ser < 1 {
			ser = 1
		}
		f.LinkFlits += ser
		f.Pkg[from].LinkFlits += ser
		f.linkFree[from][to] = start + ser
		t = start + ser + f.cfg.LinkLatency
	}
	return t
}

// Submit implements togsim.Fabric. It splits the request into bursts of
// the package memory's burst size and routes each on its own: the burst
// is the unit of link serialization and of DRAM access.
func (f *Fabric) Submit(r *togsim.MemReq) bool {
	burst := f.cfg.MemPerPackage.BurstBytes
	tag := f.Open(r, (r.Bytes+burst-1)/burst)
	for off := 0; off < r.Bytes; off += burst {
		f.submitBurst(r, tag, r.Addr+uint64(off), min(burst, r.Bytes-off))
	}
	return true
}

// submitBurst stages one burst of r, tagged tag in the InFlight table, for its
// package's controller.
func (f *Fabric) submitBurst(r *togsim.MemReq, tag int64, addr uint64, bytes int) {
	src := f.cfg.PackageOfCore(r.Core)
	dst := f.cfg.PackageOf(addr)
	local := src == dst

	if local {
		f.LocalBytes += int64(bytes)
		f.Pkg[src].LocalBytes += int64(bytes)
	} else {
		f.RemoteBytes += int64(bytes)
		f.Pkg[src].RemoteBytes += int64(bytes)
	}

	// The controller sees the local offset within its package's stack.
	dr := f.NewDram(dram.Request{
		Addr:    f.cfg.LocalOff(addr),
		IsWrite: r.IsWrite,
		Src:     r.Src,
		Tag:     f.bursts.Add(burstRec{tag, bytes}),
	})
	at := f.cycle + 1
	if !local {
		// Request traverses the link path; stores carry data, loads a header.
		hdr := 8
		if r.IsWrite {
			hdr = bytes
		}
		at = f.linkDelay(src, dst, hdr, f.cycle)
	}
	f.toMem[dst] = append(f.toMem[dst], stagedReq{at: at, req: dr})
	f.Issue(1)
}

// Tick implements togsim.Fabric.
func (f *Fabric) Tick() {
	f.cycle++
	// Release staged requests whose link traversal finished, per package,
	// in FIFO order; stop at a not-yet-due entry or a full controller.
	for p := range f.toMem {
		q, h := f.toMem[p], f.toMemHead[p]
		for h < len(q) && q[h].at <= f.cycle && f.mems[p].Submit(q[h].req) {
			h++
		}
		f.toMem[p], f.toMemHead[p] = sim.CompactFIFO(q, h)
	}

	for p, m := range f.mems {
		m.Tick()
		for _, dr := range m.Completed() {
			b := f.bursts.Take(dr.Tag)
			f.FreeDram(dr)
			r := f.Req(b.slot)
			src := f.cfg.PackageOfCore(r.Core)
			if src == p || r.IsWrite {
				// Local completion, or write acknowledged at the controller.
				f.BurstDone(b.slot)
				continue
			}
			// Load data returns over the links; queue by arrival cycle.
			at := f.linkDelay(p, src, b.bytes, f.cycle)
			if at <= f.cycle {
				at = f.cycle + 1
			}
			f.returns.Push(at, b.slot)
		}
	}
	// Deliver link-returned loads due this cycle.
	f.returned = f.returns.PopDue(f.cycle, f.returned[:0])
	for _, tag := range f.returned {
		f.BurstDone(tag)
	}
	if f.Probe != nil {
		f.ProbePending(f.Probe, obs.LinkTrack, "topo.inflight", f.cycle)
		if b := f.LocalBytes + f.RemoteBytes; b != f.lastBytes {
			f.Probe.Counter(obs.LinkTrack, "topo.bytes_total", f.cycle, float64(b))
			f.lastBytes = b
		}
		if f.LinkFlits != f.lastFlits {
			f.Probe.Counter(obs.LinkTrack, "topo.link_flits_total", f.cycle, float64(f.LinkFlits))
			f.lastFlits = f.LinkFlits
		}
	}
}

// NextEvent implements togsim.Fabric. Each per-package staging FIFO's next
// activity is its head entry's arrival time (or next cycle when the head
// is already due but stalled on a full controller); beyond that the fabric
// wakes for link returns and the package DRAM controllers.
func (f *Fabric) NextEvent() int64 {
	if f.Undrained() {
		return f.cycle + 1
	}
	next := f.returns.NextCycle()
	for p, q := range f.toMem {
		if h := f.toMemHead[p]; h < len(q) {
			at := q[h].at
			if at <= f.cycle {
				return f.cycle + 1
			}
			if at < next {
				next = at
			}
		}
	}
	for _, m := range f.mems {
		if e := m.NextEvent(); e < next {
			next = e
		}
	}
	if next <= f.cycle {
		return f.cycle + 1
	}
	return next
}

// SkipTo implements togsim.Fabric, advancing every package controller's
// clock in lock-step (link occupancy is kept in absolute cycles).
func (f *Fabric) SkipTo(cycle int64) {
	f.cycle = cycle
	for _, m := range f.mems {
		m.SkipTo(cycle)
	}
}

var _ togsim.Fabric = (*Fabric)(nil)
