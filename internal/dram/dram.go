// Package dram implements the cycle-accurate off-chip memory model (the
// paper's Ramulator 2 role): multi-channel HBM2-like DRAM with per-bank
// row-buffer state, FR-FCFS or FCFS scheduling, and tCL/tRCD/tRP/tRAS/tWR
// timing. It is the component that produces the contention, locality, and
// fairness effects the paper's case studies depend on (§5.1, §5.2).
package dram

import (
	"fmt"
	"math/bits"

	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Request is one burst-granularity memory access.
type Request struct {
	Addr    uint64
	IsWrite bool
	Src     int   // requestor id (core / DMA stream), used for fairness stats
	Tag     int64 // opaque caller tag
	Arrive  int64 // cycle the request entered the controller
	Finish  int64 // cycle data transfer completes (set by the model)

	issued bool
	// Decomposed address, cached by AddrMap.Locate so that neither the
	// FR-FCFS scan nor the retry of a refused Submit re-derives it.
	located bool
	ch, bk  int
	row     int64
}

// Channel returns the channel a located request maps to.
func (r *Request) Channel() int { return r.ch }

// AddrMap is a memory configuration's address interleave:
// row:bank:channel:offset, so sequential streams hit open rows within
// each channel. It is the one place the interleave is written down; the
// controller and the fabric in front of it (which queues and routes per
// channel) both decompose addresses through it.
type AddrMap struct {
	burstBytes, channels, burstsPerRow, banks uint64
	// pow2 says all four are powers of two, as on both stock configs; then
	// decompose shifts and masks instead of dividing. rowShift skips the
	// channel and column bits of a burst index, bankShift the bank bits.
	pow2                            bool
	burstShift, rowShift, bankShift int
}

// NewAddrMap returns cfg's interleave.
func NewAddrMap(cfg npu.MemConfig) AddrMap {
	a := AddrMap{
		burstBytes:   uint64(cfg.BurstBytes),
		channels:     uint64(cfg.Channels),
		burstsPerRow: uint64(cfg.RowBytes / cfg.BurstBytes),
		banks:        uint64(cfg.BanksPerChan),
	}
	a.pow2 = true
	for _, v := range []uint64{a.burstBytes, a.channels, a.burstsPerRow, a.banks} {
		a.pow2 = a.pow2 && v != 0 && v&(v-1) == 0
	}
	if a.pow2 {
		a.burstShift = bits.TrailingZeros64(a.burstBytes)
		a.rowShift = bits.TrailingZeros64(a.channels) + bits.TrailingZeros64(a.burstsPerRow)
		a.bankShift = bits.TrailingZeros64(a.banks)
	}
	return a
}

// Locate decomposes r.Addr into channel, bank, and row, caches the result
// on the request, and returns the channel. A Memory trusts a located
// request, so only a map of the Memory's own configuration may locate the
// requests submitted to it.
func (a *AddrMap) Locate(r *Request) int {
	r.ch, r.bk, r.row = a.decompose(r.Addr)
	r.located = true
	return r.ch
}

// Channel returns the channel serving addr: Locate's channel, without
// the bank and row.
func (a *AddrMap) Channel(addr uint64) int {
	if a.pow2 {
		return int(addr >> a.burstShift & (a.channels - 1))
	}
	return int(addr / a.burstBytes % a.channels)
}

func (a *AddrMap) decompose(addr uint64) (ch, bk int, row int64) {
	if !a.pow2 {
		return a.divide(addr)
	}
	burst := addr >> a.burstShift
	rest := burst >> a.rowShift
	return int(burst & (a.channels - 1)), int(rest & (a.banks - 1)), int64(rest >> a.bankShift)
}

// divide is decompose for any configuration.
func (a *AddrMap) divide(addr uint64) (ch, bk int, row int64) {
	burst := addr / a.burstBytes
	rest := burst / a.channels
	ch = int(burst - rest*a.channels)
	rest /= a.burstsPerRow
	r := rest / a.banks
	return ch, int(rest - r*a.banks), int64(r)
}

// SchedulerKind selects the memory scheduling policy.
type SchedulerKind int

const (
	// FRFCFS prefers row-buffer hits, then oldest-first (the default; the
	// §5.1 study shows it starves low-locality requestors).
	FRFCFS SchedulerKind = iota
	// FCFS is strict oldest-first.
	FCFS
)

// Stats aggregates controller activity.
type Stats struct {
	Reads, Writes int64
	RowHits       int64
	RowMisses     int64
	RowConflicts  int64 // miss that required closing another row
	// BytesBySrc is kept off the per-burst path: Memory accumulates it in
	// a dense per-source slice and folds that in whenever it runs out of
	// queued and in-flight requests, so the map is exact after Drain or a
	// finished engine run and lags only while requests are outstanding.
	BytesBySrc      map[int]int64
	TotalBytes      int64
	BusyCycles      int64
	QueueFullStalls int64
}

type bank struct {
	openRow int64 // -1 when closed
	readyAt int64 // earliest next command
	actAt   int64 // last activate time (for tRAS)
	wrLast  bool  // last access was a write (for tWR)
}

type channel struct {
	queue       []*Request // accepted, not yet issued; Memory.queued sums these
	banks       []bank
	busFree     int64
	nextRefresh int64
}

// Memory is the multi-channel DRAM controller model.
type Memory struct {
	cfg    npu.MemConfig
	amap   AddrMap
	sched  SchedulerKind
	chans  []channel
	queued int // requests in channel queues, so NextEvent/Pending need no scan
	cycle  int64
	// Issued requests keyed by Finish. Each channel's data bus serializes
	// transfers, so Finish is strictly monotone per channel — one
	// MonotonicQueue lane per channel.
	inFlight  *sim.MonotonicQueue[*Request]
	done      []*Request
	spare     []*Request // double buffer swapped with done at Completed
	queueCap  int
	refreshes int64
	// minRefresh is a lower bound on every channel's nextRefresh, so SkipTo
	// returns at once over stretches that contain no refresh.
	minRefresh int64

	Stats Stats
	// srcBytes[src] is the part of Stats.BytesBySrc[src] not yet folded
	// into the map (see Stats.BytesBySrc).
	srcBytes []int64
	srcDirty bool

	// Probe receives occupancy and bandwidth counters on obs.DRAMTrack when
	// non-nil. Counters are emitted only when the value changes, and never
	// influence timing.
	Probe       obs.Probe
	lastPending int
	lastBytes   int64
}

// Refreshes counts all-bank refreshes performed.
func (m *Memory) Refreshes() int64 { return m.refreshes }

// New returns a memory model for the given configuration and scheduler.
func New(cfg npu.MemConfig, sched SchedulerKind) *Memory {
	if cfg.Channels <= 0 || cfg.BanksPerChan <= 0 || cfg.RowBytes <= 0 || cfg.BurstBytes <= 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	m := &Memory{
		cfg:      cfg,
		amap:     NewAddrMap(cfg),
		sched:    sched,
		chans:    make([]channel, cfg.Channels),
		inFlight: sim.NewMonotonicQueue[*Request](cfg.Channels),
		queueCap: 64,
	}
	for i := range m.chans {
		m.chans[i].banks = make([]bank, cfg.BanksPerChan)
		for b := range m.chans[i].banks {
			m.chans[i].banks[b].openRow = -1
		}
		if cfg.TREFI > 0 {
			m.chans[i].nextRefresh = int64(cfg.TREFI)
		}
	}
	m.minRefresh = int64(cfg.TREFI)
	m.Stats.BytesBySrc = map[int]int64{}
	return m
}

// Cycle returns the current cycle.
func (m *Memory) Cycle() int64 { return m.cycle }

// BurstBytes returns the request granularity.
func (m *Memory) BurstBytes() int { return m.cfg.BurstBytes }

// CanAccept reports whether the target channel queue has room for addr.
func (m *Memory) CanAccept(addr uint64) bool {
	ch, _, _ := m.amap.decompose(addr)
	return len(m.chans[ch].queue) < m.queueCap
}

// Submit enqueues a burst request. It returns false (and drops the request)
// when the channel queue is full; callers must retry.
func (m *Memory) Submit(r *Request) bool {
	if !r.located {
		m.amap.Locate(r)
	}
	c := &m.chans[r.ch]
	if len(c.queue) >= m.queueCap {
		m.Stats.QueueFullStalls++
		return false
	}
	r.Arrive = m.cycle
	c.queue = append(c.queue, r)
	m.queued++
	return true
}

// Tick advances the controller one cycle: each channel may issue one request
// chosen by the scheduling policy; finished requests move to the completion
// list.
func (m *Memory) Tick() {
	m.cycle++
	for ci := range m.chans {
		m.issueOne(ci)
	}
	// Deliver completions.
	m.done = m.inFlight.PopDue(m.cycle, m.done)
	if m.srcDirty && m.queued == 0 && m.inFlight.Len() == 0 {
		m.foldSrcBytes()
	}
	if m.Probe != nil {
		if p := m.Pending(); p != m.lastPending {
			m.Probe.Counter(obs.DRAMTrack, "dram.inflight", m.cycle, float64(p))
			m.lastPending = p
		}
		if m.Stats.TotalBytes != m.lastBytes {
			m.Probe.Counter(obs.DRAMTrack, "dram.bytes_total", m.cycle, float64(m.Stats.TotalBytes))
			m.lastBytes = m.Stats.TotalBytes
		}
	}
}

// NextEvent implements the event-kernel contract: with queued requests a
// command may issue next cycle; otherwise the next observable change is
// the earliest in-flight completion. All-bank refresh is deliberately not
// an event — SkipTo replays the refreshes that fall inside a jump, so
// idle stretches can be skipped across refresh boundaries bit-identically.
func (m *Memory) NextEvent() int64 {
	if len(m.done) > 0 {
		return m.cycle + 1
	}
	if m.queued > 0 {
		return m.cycle + 1
	}
	next := m.inFlight.NextCycle()
	if next <= m.cycle {
		return m.cycle + 1
	}
	return next
}

// SkipTo advances the controller's clock to cycle without per-cycle
// ticking. Legal only when every channel queue is empty and no in-flight
// request finishes at or before cycle (guaranteed by NextEvent). The
// tREFI-periodic all-bank refreshes that per-cycle ticking would have
// performed in the skipped range are replayed exactly: same refresh
// cycles, same bank-state updates, same counters. Refreshes only move a
// channel's nextRefresh forward, so minRefresh stays a lower bound between
// replays and a jump that ends before it has nothing to replay.
func (m *Memory) SkipTo(cycle int64) {
	if m.cfg.TREFI > 0 && cycle >= m.minRefresh {
		m.minRefresh = sim.Never
		for ci := range m.chans {
			c := &m.chans[ci]
			for c.nextRefresh <= cycle {
				m.refreshes++
				until := c.nextRefresh + int64(m.cfg.TRFC)
				for b := range c.banks {
					c.banks[b].openRow = -1
					if c.banks[b].readyAt < until {
						c.banks[b].readyAt = until
					}
				}
				c.nextRefresh += int64(m.cfg.TREFI)
			}
			m.minRefresh = min(m.minRefresh, c.nextRefresh)
		}
	}
	m.cycle = cycle
}

// Completed drains and returns requests whose data transfer has finished.
func (m *Memory) Completed() []*Request {
	out := m.done
	m.done = m.spare[:0]
	m.spare = out
	return out
}

// issueOne applies the scheduling policy to channel ci.
func (m *Memory) issueOne(ci int) {
	c := &m.chans[ci]
	// All-bank refresh (tREFI/tRFC): precharge every bank and hold the
	// channel for tRFC.
	if m.cfg.TREFI > 0 && m.cycle >= c.nextRefresh {
		c.nextRefresh += int64(m.cfg.TREFI)
		m.refreshes++
		until := m.cycle + int64(m.cfg.TRFC)
		for b := range c.banks {
			c.banks[b].openRow = -1
			if c.banks[b].readyAt < until {
				c.banks[b].readyAt = until
			}
		}
		return
	}
	if len(c.queue) == 0 {
		return
	}
	// One command per channel per cycle; data transfers pipeline behind CAS
	// latency, so the bus being busy later does not block issuing now, but
	// we do bound how far the data bus may run ahead (command queue depth).
	if c.busFree > m.cycle+int64(m.cfg.TCL) {
		return
	}
	pick := -1
	if m.sched == FRFCFS {
		// Oldest row hit first.
		for i, r := range c.queue {
			b := &c.banks[r.bk]
			if b.openRow == r.row && b.readyAt <= m.cycle {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		// Oldest request whose bank can take a command now-ish; fall back to
		// the absolute oldest to preserve forward progress.
		pick = 0
	}
	r := c.queue[pick]
	c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
	m.queued--
	m.serve(ci, r)
}

// serve computes the timing of one request against its bank and the channel
// data bus, updating all state.
func (m *Memory) serve(ci int, r *Request) {
	c := &m.chans[ci]
	bk, row := r.bk, r.row
	b := &c.banks[bk]
	cfg := m.cfg

	start := m.cycle
	if b.readyAt > start {
		start = b.readyAt
	}

	var casAt int64
	switch {
	case b.openRow == row:
		m.Stats.RowHits++
		casAt = start
	case b.openRow == -1:
		m.Stats.RowMisses++
		actAt := start
		casAt = actAt + int64(cfg.TRCD)
		b.openRow = row
		b.actAt = actAt
	default:
		m.Stats.RowMisses++
		m.Stats.RowConflicts++
		preAt := start
		if min := b.actAt + int64(cfg.TRAS); preAt < min {
			preAt = min
		}
		if b.wrLast {
			preAt += int64(cfg.TWR)
		}
		actAt := preAt + int64(cfg.TRP)
		casAt = actAt + int64(cfg.TRCD)
		b.openRow = row
		b.actAt = actAt
	}

	// Data burst: one bus slot after CAS latency.
	dataAt := casAt + int64(cfg.TCL)
	if dataAt < c.busFree {
		dataAt = c.busFree
	}
	c.busFree = dataAt + 1
	b.readyAt = casAt + 1
	b.wrLast = r.IsWrite
	r.Finish = dataAt + 1
	r.issued = true
	m.inFlight.Push(ci, r.Finish, r)

	// Stats.
	if r.IsWrite {
		m.Stats.Writes++
	} else {
		m.Stats.Reads++
	}
	m.addSrcBytes(r.Src, int64(cfg.BurstBytes))
	m.Stats.TotalBytes += int64(cfg.BurstBytes)
	m.Stats.BusyCycles++
}

// maxDenseSrc bounds the dense per-source slice; requestor ids are small
// (core or tenant indices), and anything else goes straight to the map.
const maxDenseSrc = 1 << 16

func (m *Memory) addSrcBytes(src int, n int64) {
	if uint(src) >= maxDenseSrc {
		m.Stats.BytesBySrc[src] += n
		return
	}
	for src >= len(m.srcBytes) {
		m.srcBytes = append(m.srcBytes, 0)
	}
	m.srcBytes[src] += n
	m.srcDirty = true
}

// foldSrcBytes moves the dense per-source counts into Stats.BytesBySrc.
func (m *Memory) foldSrcBytes() {
	for src, n := range m.srcBytes {
		if n != 0 {
			m.Stats.BytesBySrc[src] += n
			m.srcBytes[src] = 0
		}
	}
	m.srcDirty = false
}

// Pending returns the number of requests queued or in flight.
func (m *Memory) Pending() int { return m.queued + m.inFlight.Len() + len(m.done) }

// Drain advances the clock until all submitted requests have completed,
// returning the completions. It panics after a very large number of cycles
// (deadlock guard).
func (m *Memory) Drain() []*Request {
	var out []*Request
	for guard := 0; m.Pending() > 0; guard++ {
		if guard > 100_000_000 {
			panic("dram: drain did not converge")
		}
		m.Tick()
		out = append(out, m.Completed()...)
	}
	return out
}

// AchievedBandwidth returns bytes per cycle served so far.
func (m *Memory) AchievedBandwidth() float64 {
	if m.cycle == 0 {
		return 0
	}
	return float64(m.Stats.TotalBytes) / float64(m.cycle)
}

// PeakBandwidth returns the theoretical bytes per cycle.
func (m *Memory) PeakBandwidth() float64 {
	return float64(m.cfg.Channels * m.cfg.BurstBytes)
}
