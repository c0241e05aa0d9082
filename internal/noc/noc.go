// Package noc models the on-chip interconnect between NPU cores and memory
// channels. Two models are provided, matching the paper's evaluation
// (§4.1): SN, a simple latency-bandwidth model, and CN, a cycle-accurate
// input-queued crossbar with flit-granularity transfers, per-output
// round-robin allocation, and bounded queues (the Booksim role).
package noc

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Message is one network transfer between ports (a memory request or
// response payload).
type Message struct {
	Src, Dst int
	Bytes    int
	Tag      int64
	Arrive   int64
	Finish   int64
}

// portTable is the per-port bandwidth table both models share. Ports are
// small dense integers, so per-port state lives in slices grown on demand,
// not maps.
type portTable struct {
	width    []int // flits per cycle per port (0 = default 1)
	maxWidth int   // widest port (CN starts it at the default, 1)
}

// SetPortWidth sets a port's bandwidth in flits per cycle (a core's memory
// interface spans every channel, so its port is many flits wide). CN
// applies it to both the port's input and output sides.
func (t *portTable) SetPortWidth(port, width int) {
	width = max(width, 1)
	t.width = grow(t.width, port)
	t.width[port] = width
	t.maxWidth = max(t.maxWidth, width)
}

func (t *portTable) portWidth(port int) int {
	if port < len(t.width) && t.width[port] > 0 {
		return t.width[port]
	}
	return 1
}

// grow returns s extended with zero values so that s[i] is valid.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// flitCount is the number of flits a message of the given size splits
// into (at least one: a header-only message still crosses the switch).
func flitCount(bytes, flitBytes int) int {
	return max(1, (bytes+flitBytes-1)/flitBytes)
}

// outbox is the delivery side both models share: delivered messages,
// double-buffered for Completed, and the change-triggered probe counters.
type outbox struct {
	done  []*Message
	spare []*Message // double buffer swapped with done at Completed

	probe       obs.Probe
	lastPending int
	lastFlits   int64
}

// Completed drains delivered messages; the slice is valid until the next
// call.
func (o *outbox) Completed() []*Message {
	out := o.done
	o.done = o.spare[:0]
	o.spare = out
	return out
}

// SetProbe implements Network.
func (o *outbox) SetProbe(p obs.Probe) { o.probe = p }

// observe reports the in-flight message count and the cumulative flit
// count to the attached probe when either changed.
func (o *outbox) observe(cycle int64, pending int, flits int64) {
	if pending != o.lastPending {
		o.probe.Counter(obs.NoCTrack, "noc.inflight", cycle, float64(pending))
		o.lastPending = pending
	}
	if flits != o.lastFlits {
		o.probe.Counter(obs.NoCTrack, "noc.flits_total", cycle, float64(flits))
		o.lastFlits = flits
	}
}

// Network is the interface shared by both models. It embeds the
// discrete-event kernel contract so engines can skip idle stretches.
type Network interface {
	sim.Component
	Submit(m *Message) bool
	Completed() []*Message
	Cycle() int64
	Pending() int
	// Flits returns the cumulative flit count the network has carried
	// (accepted for SN, switched for CN) — the activity counter energy
	// accounting prices per flit-hop.
	Flits() int64
	// SetPortWidth configures a port's bandwidth in flits per cycle.
	SetPortWidth(port, width int)
	// SetProbe attaches an observability probe (nil detaches). Probes
	// receive occupancy counters on obs.NoCTrack and never affect timing.
	SetProbe(p obs.Probe)
}

// --- SN: simple latency + bandwidth model ---------------------------------

// Simple models each port pair as a fixed-latency link with per-port
// serialization bandwidth of FlitBytes per cycle.
type Simple struct {
	FlitBytes int
	Latency   int64

	cycle int64
	portTable
	// srcClock tracks each source port's occupancy in flit-time units
	// (cycle * width + flits), so wide ports move many single-flit
	// messages per cycle. Receive ports are ideal (never the bottleneck in
	// this model — CN models them).
	srcClock []int64

	// In-flight deliveries. Per-source delivery slots are monotone (the
	// serialization clock only moves forward), so each source is a lane of
	// a MonotonicQueue instead of a shared heap.
	inFlight *sim.MonotonicQueue[*Message]
	laneOf   []int // source port -> lane index + 1 (0 = none yet)

	outbox

	// FlitsSent counts flits accepted for serialization (always on).
	FlitsSent int64
}

// NewSimple returns the SN model.
func NewSimple(flitBytes int, latency int64) *Simple {
	if flitBytes <= 0 {
		panic("noc: non-positive flit size")
	}
	return &Simple{
		FlitBytes: flitBytes,
		Latency:   latency,
		inFlight:  sim.NewMonotonicQueue[*Message](0),
	}
}

// Cycle returns the current cycle.
func (s *Simple) Cycle() int64 { return s.cycle }

// Submit schedules a message: its flits serialize through the source
// port's flit clock (width flits per cycle); delivery happens Latency
// cycles after the last flit leaves.
func (s *Simple) Submit(m *Message) bool {
	m.Arrive = s.cycle
	flits := int64(flitCount(m.Bytes, s.FlitBytes))
	s.FlitsSent += flits
	w := int64(s.portWidth(m.Src))
	s.srcClock = grow(s.srcClock, m.Src)
	startFlit := s.cycle * w
	if t := s.srcClock[m.Src]; t > startFlit {
		startFlit = t
	}
	endFlit := startFlit + flits
	s.srcClock[m.Src] = endFlit
	txDone := (endFlit + w - 1) / w
	arrive := txDone + s.Latency
	m.Finish = arrive
	slot := arrive
	if slot <= s.cycle {
		slot = s.cycle + 1
	}
	s.laneOf = grow(s.laneOf, m.Src)
	lane := s.laneOf[m.Src] - 1
	if lane < 0 {
		lane = s.inFlight.AddLane()
		s.laneOf[m.Src] = lane + 1
	}
	s.inFlight.Push(lane, slot, m)
	return true
}

// Tick advances one cycle, delivering due messages.
func (s *Simple) Tick() {
	s.cycle++
	s.done = s.inFlight.PopDue(s.cycle, s.done)
	if s.probe != nil {
		s.observe(s.cycle, s.Pending(), s.FlitsSent)
	}
}

// NextEvent implements sim.Component: the next delivery, or Never when
// nothing is in flight. Undrained completions pin the event to the next
// cycle so a caller never skips past them.
func (s *Simple) NextEvent() int64 {
	if len(s.done) > 0 {
		return s.cycle + 1
	}
	next := s.inFlight.NextCycle()
	if next <= s.cycle {
		return s.cycle + 1
	}
	return next
}

// SkipTo implements sim.Component. All SN state is kept in absolute
// cycles, so an idle jump is just a clock update.
func (s *Simple) SkipTo(cycle int64) { s.cycle = cycle }

// Pending returns undelivered message count.
func (s *Simple) Pending() int { return s.inFlight.Len() + len(s.done) }

// Flits implements Network.
func (s *Simple) Flits() int64 { return s.FlitsSent }

// --- CN: cycle-accurate input-queued crossbar ------------------------------

type flit struct {
	msg  *Message
	last bool
}

// Crossbar is an input-queued crossbar switch: each input port holds a flit
// FIFO; every cycle a round-robin allocator grants each output port to at
// most one requesting input (head-of-line), and each input sends at most one
// flit. Messages are delivered when their tail flit leaves the switch plus
// the pipeline latency.
type Crossbar struct {
	FlitBytes int
	Latency   int64 // switch pipeline traversal latency
	QueueCap  int   // per-input queue capacity in flits

	portTable

	cycle int64
	// Input ports in first-submit order, the order round-robin visits them
	// in; inPos maps a port to its position + 1 (0 = not seen yet). Per-input
	// state is indexed by that position, per-output state by port.
	inIDs   []int
	inPos   []int
	queue   [][]flit // per input: head-indexed flit FIFO (live: queue[i][head[i]:])
	head    []int
	queued  int   // flits queued over all inputs
	rrNext  []int // per output: position of the input granted last
	pending int   // messages with flits still queued
	// Messages waiting out the pipeline latency. Finish = switch cycle +
	// Latency only moves forward, so one monotone lane holds them all.
	delayed *sim.MonotonicQueue[*Message]

	// Scratch reused across ticks to avoid per-cycle allocation.
	inUsed  []int   // per input: flits sent this cycle
	outUsed []int   // per output: flits received this cycle
	reqs    [][]int // per output: positions of this pass's requesting inputs
	reqOuts []int   // outputs with requests this pass

	// Stats.
	FlitsSwitched  int64
	AllocConflicts int64

	outbox
}

// NewCrossbar returns the CN model.
func NewCrossbar(flitBytes int, latency int64, queueCap int) *Crossbar {
	if queueCap <= 0 {
		queueCap = 64
	}
	return &Crossbar{
		FlitBytes: flitBytes,
		Latency:   latency,
		QueueCap:  queueCap,
		portTable: portTable{maxWidth: 1},
		delayed:   sim.NewMonotonicQueue[*Message](1),
	}
}

// Cycle returns the current cycle.
func (x *Crossbar) Cycle() int64 { return x.cycle }

// input returns the position of an input port, registering it on first use.
func (x *Crossbar) input(port int) int {
	x.inPos = grow(x.inPos, port)
	if x.inPos[port] == 0 {
		x.inIDs = append(x.inIDs, port)
		x.inPos[port] = len(x.inIDs)
		x.queue = append(x.queue, nil)
		x.head = append(x.head, 0)
		x.inUsed = append(x.inUsed, 0)
	}
	return x.inPos[port] - 1
}

// Submit enqueues a message's flits at its source port. It returns false if
// the input queue lacks space for all flits (caller retries).
func (x *Crossbar) Submit(m *Message) bool {
	flits := flitCount(m.Bytes, x.FlitBytes)
	i := x.input(m.Src)
	if len(x.queue[i])-x.head[i]+flits > x.QueueCap {
		return false
	}
	x.rrNext = grow(x.rrNext, m.Dst)
	x.outUsed = grow(x.outUsed, m.Dst)
	x.reqs = grow(x.reqs, m.Dst)
	m.Arrive = x.cycle
	for k := 0; k < flits; k++ {
		x.queue[i] = append(x.queue[i], flit{msg: m, last: k == flits-1})
	}
	x.queued += flits
	x.pending++
	return true
}

// Tick performs one cycle of switch allocation: per-port input/output
// capacities equal the configured port widths; allocation runs in passes,
// each granting at most one flit per (input, output) pair round-robin.
func (x *Crossbar) Tick() {
	x.cycle++
	if x.queued > 0 {
		x.allocate()
	}
	// Deliver messages whose pipeline latency elapsed.
	x.done = x.delayed.PopDue(x.cycle, x.done)
	if x.probe != nil {
		x.observe(x.cycle, x.Pending(), x.FlitsSwitched)
	}
}

// allocate runs one cycle's allocation passes. An input requests only its
// head flit's output, so it is on at most one request list per pass.
func (x *Crossbar) allocate() {
	clear(x.inUsed)
	clear(x.outUsed)
	n := len(x.inIDs)
	for pass := 0; pass < x.maxWidth; pass++ {
		// Collect head-of-line requests per output among inputs with
		// remaining capacity and queued flits.
		for _, out := range x.reqOuts {
			x.reqs[out] = x.reqs[out][:0]
		}
		x.reqOuts = x.reqOuts[:0]
		for i, id := range x.inIDs {
			if x.head[i] == len(x.queue[i]) || x.inUsed[i] >= x.portWidth(id) {
				continue
			}
			dst := x.queue[i][x.head[i]].msg.Dst
			if x.outUsed[dst] >= x.portWidth(dst) {
				continue
			}
			if len(x.reqs[dst]) == 0 {
				x.reqOuts = append(x.reqOuts, dst)
			}
			x.reqs[dst] = append(x.reqs[dst], i)
		}
		if len(x.reqOuts) == 0 {
			return
		}
		for _, out := range x.reqOuts {
			ins := x.reqs[out]
			if pass == 0 {
				x.AllocConflicts += int64(len(ins) - 1)
			}
			// Round-robin among the requesting inputs: grant the one
			// closest after rrNext[out] in first-submit order.
			pick, best := -1, n+1
			for _, i := range ins {
				score := i - x.rrNext[out]
				if score <= 0 {
					score += n
				}
				if score < best {
					best, pick = score, i
				}
			}
			x.rrNext[out] = pick
			x.inUsed[pick]++
			x.outUsed[out]++
			f := x.queue[pick][x.head[pick]]
			x.queue[pick], x.head[pick] = sim.CompactFIFO(x.queue[pick], x.head[pick]+1)
			x.queued--
			x.FlitsSwitched++
			if f.last {
				f.msg.Finish = x.cycle + x.Latency
				x.pending--
				x.delayed.Push(0, f.msg.Finish, f.msg)
			}
		}
	}
}

// NextEvent implements sim.Component. Any queued flit means allocation
// work next cycle; otherwise the next event is the earliest pipeline
// delivery.
func (x *Crossbar) NextEvent() int64 {
	if len(x.done) > 0 || x.queued > 0 {
		return x.cycle + 1
	}
	next := x.delayed.NextCycle()
	if next <= x.cycle {
		return x.cycle + 1
	}
	return next
}

// SkipTo implements sim.Component: with empty input queues, the only
// time-dependent state is the absolute-cycle delivery queue.
func (x *Crossbar) SkipTo(cycle int64) { x.cycle = cycle }

// Pending returns messages not yet delivered.
func (x *Crossbar) Pending() int {
	return x.pending + x.delayed.Len() + len(x.done)
}

// Flits implements Network.
func (x *Crossbar) Flits() int64 { return x.FlitsSwitched }

var (
	_ Network = (*Simple)(nil)
	_ Network = (*Crossbar)(nil)
)

// Drain runs net until empty (test/benchmark helper).
func Drain(n Network) []*Message {
	var out []*Message
	for guard := 0; n.Pending() > 0; guard++ {
		if guard > 50_000_000 {
			panic(fmt.Sprintf("noc: drain did not converge (%d pending)", n.Pending()))
		}
		n.Tick()
		out = append(out, n.Completed()...)
	}
	return out
}
