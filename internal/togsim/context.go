package togsim

import (
	"fmt"

	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tog"
)

// context walks one job's TOG sequence node by node, maintaining the loop
// stack, issuing DMAs to the fabric, and occupying the core's compute units.
type context struct {
	job    *job2
	coreID int

	togIdx  int
	pc      int
	vars    map[string]int64
	loops   []loopFrame
	readyAt int64 // context blocked until this cycle

	// DMA bookkeeping. Memory requests (one per contiguous DRAM range) in
	// flight are counted per DMA tag in a dense slice: tagSlot assigns each
	// tag the job uses an index on first sight (one map read per DMA or
	// wait node), so the per-request updates in issueDMA and dmaDone are
	// slice increments.
	tagSlot    map[int]int
	pendingTag []int       // requests in flight, by tagSlot index
	issueQueue []*MemReq   // requests of the current DMA not yet accepted
	ranges     []npu.Range // issueDMA's reused buffer for the DMA's DRAM ranges
	waitTag    int         // -1 when not waiting
	waitSlot   int         // tagSlot index of waitTag
	waitAll    bool        // final drain before a TOG completes

	// Requests outstanding over all tags (what the end-of-TOG drain waits
	// on), and for deadlock diagnostics the issue cycle of the oldest
	// window of in-flight DMAs (-1 when none).
	pendingTotal int
	oldestIssue  int64

	// Cycle-class accounting (always on; timestamp-based so the numbers
	// are identical under event-driven and strict execution).
	computeBusy  int64
	unitWait     int64
	dmaWait      int64
	blockedSince int64 // first cycle of the current DMA stall, -1 when none
	dmaBytes     int64

	// Collective accounting: cycles spent between a collective region
	// marker and its collEnd (timestamp-based, like the classes above).
	collStart  int64 // cycle the open collective region began, -1 when none
	collCycles int64
	collCount  int64

	// Per-unit activity counters (always on; same timestamp-based
	// discipline as the cycle classes, copied to JobResult.Activity).
	act Activity

	// Tracing (nil/empty unless a probe is attached).
	probe   obs.Probe
	dmaOpen map[int]*dmaSpan // open DMA window per tagSlot index
}

// dmaSpan tracks one open DMA window (first request issued → last request
// completed) for trace emission.
type dmaSpan struct {
	start int64
	bytes int64
	name  string
}

// job2 aliases Job to keep struct embedding simple.
type job2 = Job

type loopFrame struct {
	beginPC int
	v       string
}

func newContext(j *Job, coreID int, probe obs.Probe) *context {
	c := &context{
		job:          j,
		coreID:       coreID,
		vars:         map[string]int64{},
		tagSlot:      map[int]int{},
		waitTag:      -1,
		oldestIssue:  -1,
		blockedSince: -1,
		collStart:    -1,
		probe:        probe,
	}
	if probe != nil {
		c.dmaOpen = map[int]*dmaSpan{}
	}
	return c
}

// block marks the start of a DMA stall (idempotent while already stalled).
func (c *context) block(cycle int64) {
	if c.blockedSince < 0 {
		c.blockedSince = cycle
	}
}

// unblock closes the current DMA stall window, accounting its cycles and
// emitting a stall span when tracing.
func (c *context) unblock(cycle int64) {
	if c.blockedSince < 0 {
		return
	}
	if cycle > c.blockedSince {
		c.dmaWait += cycle - c.blockedSince
		if c.probe != nil {
			c.probe.Span(obs.CoreTrack(c.coreID, obs.LaneStall), "dma-stall",
				c.blockedSince, cycle, obs.SpanInfo{})
		}
	}
	c.blockedSince = -1
}

func (c *context) finished() bool { return c.togIdx >= len(c.job.TOGs) }

// slotOf returns tag's index into pendingTag, assigning one on first use.
func (c *context) slotOf(tag int) int {
	s, ok := c.tagSlot[tag]
	if !ok {
		s = len(c.pendingTag)
		c.tagSlot[tag] = s
		c.pendingTag = append(c.pendingTag, 0)
	}
	return s
}

// dmaDone is called by the engine when one of this context's requests
// completes.
func (c *context) dmaDone(r *MemReq, cycle int64) {
	c.pendingTag[r.slot]--
	c.pendingTotal--
	if c.pendingTotal == 0 {
		c.oldestIssue = -1
	}
	c.dmaBytes += int64(r.Bytes)
	// A store DMA read the bytes out of the scratchpad; a load DMA wrote
	// them in. Counted at delivery so backpressured requests count once.
	if r.IsWrite {
		c.act.SpadReadBytes += int64(r.Bytes)
	} else {
		c.act.SpadWriteBytes += int64(r.Bytes)
	}
	if c.probe != nil && c.pendingTag[r.slot] == 0 {
		if ds, ok := c.dmaOpen[r.slot]; ok {
			c.probe.Span(obs.CoreTrack(c.coreID, obs.LaneDMA), ds.name,
				ds.start, cycle, obs.SpanInfo{Bytes: ds.bytes})
			delete(c.dmaOpen, r.slot)
		}
	}
}

// nextWake reports the earliest future cycle at which stepping this
// context could do anything, mirroring step's entry checks exactly:
// sim.Never means "only a fabric completion can unblock it" (the engine
// folds the fabric's NextEvent in separately). The value must never
// overshoot — an undershoot only costs speed, an overshoot breaks the
// bit-identical equivalence with per-cycle ticking.
func (c *context) nextWake(cycle int64) int64 {
	switch {
	case c.finished():
		return sim.Never
	case cycle < c.readyAt:
		return c.readyAt
	case len(c.issueQueue) > 0:
		// Backpressured requests retry Submit every cycle; Submit reads the
		// fabric's current occupancy clocks, so no cycle may be skipped.
		return cycle + 1
	case c.waitTag >= 0:
		if c.pendingTag[c.waitSlot] > 0 {
			return sim.Never
		}
		return cycle + 1
	case c.waitAll:
		if c.pendingTotal > 0 {
			return sim.Never
		}
		return cycle + 1
	default:
		return cycle + 1 // runnable (e.g. node budget exhausted mid-TOG)
	}
}

// stall describes why the context is not finished, for deadlock reports.
func (c *context) stall(cycle int64) string {
	oldest := ""
	if c.pendingTotal > 0 && c.oldestIssue >= 0 {
		oldest = fmt.Sprintf(", oldest issued at cycle %d", c.oldestIssue)
	}
	switch {
	case cycle < c.readyAt:
		return fmt.Sprintf("computing until cycle %d", c.readyAt)
	case len(c.issueQueue) > 0:
		return fmt.Sprintf("backpressured (%d requests refused by fabric, %d in flight%s)",
			len(c.issueQueue), c.pendingTotal, oldest)
	case c.waitTag >= 0 && c.pendingTag[c.waitSlot] > 0:
		return fmt.Sprintf("waiting on DMA tag %d (%d requests in flight%s)",
			c.waitTag, c.pendingTotal, oldest)
	case c.waitAll && c.pendingTotal > 0:
		return fmt.Sprintf("draining TOG %d/%d (%d requests in flight%s)",
			c.togIdx+1, len(c.job.TOGs), c.pendingTotal, oldest)
	default:
		return fmt.Sprintf("runnable at TOG %d/%d pc %d", c.togIdx+1, len(c.job.TOGs), c.pc)
	}
}

// step advances the context as far as it can within one cycle. A non-nil
// error (unbound tensor, missing tile latency, unmatched loop) aborts the
// run.
func (c *context) step(cycle int64, cs *coreState, fabric Fabric) error {
	if c.finished() || cycle < c.readyAt {
		return nil
	}
	// Flush requests the fabric previously refused.
	for len(c.issueQueue) > 0 {
		if !fabric.Submit(c.issueQueue[0]) {
			c.block(cycle)
			return nil // fabric full; retry next cycle
		}
		c.issueQueue = c.issueQueue[1:]
	}
	// Blocked on a waitDMA?
	if c.waitTag >= 0 {
		if c.pendingTag[c.waitSlot] > 0 {
			c.block(cycle)
			return nil
		}
		c.waitTag = -1
	}
	if c.waitAll {
		if c.pendingTotal > 0 {
			c.block(cycle)
			return nil
		}
		c.unblock(cycle)
		c.waitAll = false
		c.togIdx++
		c.pc = 0
		c.vars = map[string]int64{}
		c.loops = nil
		return nil
	}
	c.unblock(cycle)

	g := c.job.TOGs[c.togIdx]
	for steps := 0; steps < nodesPerCycle; steps++ {
		if c.pc >= len(g.Nodes) {
			// TOG body done; drain outstanding DMAs before moving on. The
			// stall clock starts here, not at the next step call — strict and
			// event-driven execution reach this point on the same cycle but
			// revisit the context on different ones.
			c.waitAll = true
			if c.pendingTotal > 0 {
				c.block(cycle)
			}
			return nil
		}
		n := &g.Nodes[c.pc]
		switch n.Kind {
		case tog.LoopBegin:
			end, err := g.MatchEnd(c.pc)
			if err != nil {
				return err
			}
			if n.Init >= n.Limit {
				c.pc = end + 1
				continue
			}
			c.vars[n.Var] = n.Init
			c.loops = append(c.loops, loopFrame{beginPC: c.pc, v: n.Var})
			c.pc++
		case tog.LoopEnd:
			fr := &c.loops[len(c.loops)-1]
			begin := &g.Nodes[fr.beginPC]
			c.vars[fr.v] += begin.Step
			if c.vars[fr.v] < begin.Limit {
				c.pc = fr.beginPC + 1
			} else {
				delete(c.vars, fr.v)
				c.loops = c.loops[:len(c.loops)-1]
				c.pc++
			}
		case tog.Compute:
			lat := n.Cycles
			key := ""
			if n.LatKey != "" {
				key = tog.SubstituteKey(n.LatKey, c.vars)
				l, ok := g.TileLatencies[key]
				if !ok {
					return fmt.Errorf("togsim: missing tile latency %q in %q", key, g.Name)
				}
				lat = l
			}
			var unitFree *int64
			var busy *int64
			switch n.Unit {
			case tog.UnitSA:
				// Pick the earliest-free systolic array on this core.
				best := 0
				for i := 1; i < len(cs.saFree); i++ {
					if cs.saFree[i] < cs.saFree[best] {
						best = i
					}
				}
				unitFree = &cs.saFree[best]
				busy = &cs.stats.SABusy
			case tog.UnitSparse:
				unitFree = &cs.sparseFree
				busy = &cs.stats.SparseBusy
			default:
				unitFree = &cs.vecFree
				busy = &cs.stats.VectorBusy
			}
			start := cycle
			if *unitFree > start {
				start = *unitFree
			}
			finish := start + lat
			*unitFree = finish
			*busy += lat
			c.computeBusy += lat
			c.unitWait += start - cycle
			c.readyAt = finish
			c.pc++
			switch n.Unit {
			case tog.UnitSA:
				c.act.SAMacCycles += lat
				c.act.SATileLoads++
			case tog.UnitSparse:
				c.act.SparseCycles += lat
			default:
				c.act.VectorCycles += lat
			}
			if cs.rates != nil && c.probe != nil {
				// Power-over-time track: cumulative dynamic compute energy
				// per core, sampled at every compute issue (change-triggered
				// by construction — the counter only grows). Probe-gated:
				// this float never exists on the untraced path.
				switch n.Unit {
				case tog.UnitSA:
					cs.energyPJ += float64(lat)*cs.rates.saPJ + cs.rates.saTilePJ
				case tog.UnitSparse:
					cs.energyPJ += float64(lat) * cs.rates.sparsePJ
				default:
					cs.energyPJ += float64(lat) * cs.rates.vecPJ
				}
				c.probe.Counter(obs.CoreTrack(c.coreID, obs.LaneEnergy),
					"core.energy_pj", finish, cs.energyPJ)
			}
			if c.probe != nil {
				name := key
				if name == "" {
					name = string(n.Unit)
				}
				if name == "" {
					name = "compute"
				}
				c.probe.Span(obs.CoreTrack(c.coreID, laneOfUnit(n.Unit)), name,
					cycle, finish, obs.SpanInfo{Wait: start - cycle})
			}
			return nil
		case tog.LoadDMA, tog.StoreDMA:
			if err := c.issueDMA(g, n, cs, fabric, cycle); err != nil {
				return fmt.Errorf("togsim: %w", err)
			}
			c.pc++
			if len(c.issueQueue) > 0 {
				c.block(cycle)
				return nil // fabric backpressure
			}
		case tog.WaitDMA:
			c.pc++
			if slot := c.slotOf(n.Tag); c.pendingTag[slot] > 0 {
				c.waitTag, c.waitSlot = n.Tag, slot
				c.block(cycle)
				return nil
			}
		case tog.AllReduce, tog.AllGather, tog.ReduceScatter:
			// Region marker: the compiler already expanded the ring schedule
			// between here and the matching collEnd, so execution just opens
			// the attribution window. An unexpanded marker means the graph
			// skipped the lowering pass — that is a compile bug, not a
			// runtime condition, so abort loudly.
			if !n.Expanded {
				return fmt.Errorf("togsim: unexpanded collective %q in %q", n.Kind, g.Name)
			}
			c.collStart = cycle
			c.pc++
		case tog.CollEnd:
			if c.collStart >= 0 {
				c.collCycles += cycle - c.collStart
				c.collStart = -1
				c.collCount++
			}
			c.pc++
		}
	}
	return nil
}

// laneOfUnit maps a compute unit to its trace lane on the core's track.
func laneOfUnit(u tog.Unit) int32 {
	switch u {
	case tog.UnitSA:
		return obs.LaneSA
	case tog.UnitSparse:
		return obs.LaneSparse
	default:
		return obs.LaneVector
	}
}

// issueDMA submits a DMA node as one memory request per contiguous DRAM
// range; the fabric splits each into bursts. Request records come from the
// core's freelist: the engine returns them to the pool at delivery time.
func (c *context) issueDMA(g *tog.TOG, n *tog.Node, cs *coreState, fabric Fabric, cycle int64) error {
	base, ok := c.baseOf(n.Tensor)
	if !ok {
		return fmt.Errorf("unbound tensor %q in %q", n.Tensor, g.Name)
	}
	off, err := n.Off.Eval(c.vars)
	if err != nil {
		return err
	}
	slot := c.slotOf(n.Tag)
	var issued int64
	c.ranges = n.Desc.DRAMRanges(c.ranges[:0], base+uint64(off))
	for _, rg := range c.ranges {
		issued += int64(rg.Bytes)
		var req *MemReq
		if np := len(cs.reqPool); np > 0 {
			req = cs.reqPool[np-1]
			cs.reqPool = cs.reqPool[:np-1]
		} else {
			req = &MemReq{}
		}
		*req = MemReq{
			Addr:    rg.Addr,
			Bytes:   rg.Bytes,
			IsWrite: n.Kind == tog.StoreDMA,
			Src:     c.job.Src,
			Core:    c.coreID,
			owner:   c,
			slot:    slot,
		}
		c.pendingTag[slot]++
		c.pendingTotal++
		if c.oldestIssue < 0 {
			c.oldestIssue = cycle
		}
		if len(c.issueQueue) > 0 || !fabric.Submit(req) {
			c.issueQueue = append(c.issueQueue, req)
		}
	}
	if c.probe != nil && issued > 0 {
		if ds, ok := c.dmaOpen[slot]; ok {
			ds.bytes += issued
		} else {
			name := "load " + n.Tensor
			if n.Kind == tog.StoreDMA {
				name = "store " + n.Tensor
			}
			c.dmaOpen[slot] = &dmaSpan{start: cycle, bytes: issued, name: name}
		}
	}
	return nil
}

func (c *context) baseOf(tensor string) (uint64, bool) {
	b, ok := c.job.Bases[c.togIdx][tensor]
	return b, ok
}
