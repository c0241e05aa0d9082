package togsim

import (
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sim"
)

// InFlight is the request lifecycle every fabric shares: a registry of
// the requests it holds, each counting its bursts not yet completed, the
// count of bursts in flight behind Pending, the double buffer behind
// Completed, and a freelist of the dram.Requests its bursts borrow. A
// fabric embeds it and so gets Completed and Pending; what stays the
// fabric's own is how a burst travels between Submit and BurstDone.
type InFlight struct {
	slots       sim.Registry[slot]
	done        []*MemReq
	doneSpare   []*MemReq // double buffer swapped with done at Completed
	pending     int       // bursts in flight
	lastPending int       // last value ProbePending emitted

	// Freelist of per-burst controller requests: a fabric owns each one
	// from NewDram until its controller completes it, so DMA-heavy runs
	// recycle them instead of allocating one per burst (pinned by the
	// allocs/op benchmark assertions).
	drPool []*dram.Request
}

// slot is one in-flight request and its bursts not yet completed.
type slot struct {
	r    *MemReq
	left int
}

// Open registers r with bursts bursts outstanding and returns its tag,
// which it also stores in r until the request completes.
func (t *InFlight) Open(r *MemReq, bursts int) int64 {
	r.tag = t.slots.Add(slot{r, bursts})
	return r.tag
}

// Issue counts n more bursts in flight.
func (t *InFlight) Issue(n int) { t.pending += n }

// Req returns the request registered under tag.
func (t *InFlight) Req(tag int64) *MemReq { return t.slots.At(tag).r }

// BurstDone retires one burst of the request tagged tag, completing the
// request at its last burst.
func (t *InFlight) BurstDone(tag int64) {
	t.pending--
	if sl := t.slots.At(tag); sl.left > 1 {
		sl.left--
		return
	}
	r := t.slots.Take(tag).r
	r.tag = 0 // the record may be submitted again
	t.done = append(t.done, r)
}

// Undrained reports completed requests that Completed has not returned
// yet; a fabric holding any has an event next cycle.
func (t *InFlight) Undrained() bool { return len(t.done) > 0 }

// NewDram takes a controller request from the freelist (or allocates
// one) and sets it to v, the controller's private fields included.
func (t *InFlight) NewDram(v dram.Request) *dram.Request {
	var dr *dram.Request
	if n := len(t.drPool); n > 0 {
		dr = t.drPool[n-1]
		t.drPool = t.drPool[:n-1]
	} else {
		dr = new(dram.Request)
	}
	*dr = v
	return dr
}

// FreeDram returns a completed controller request to the freelist.
func (t *InFlight) FreeDram(dr *dram.Request) { t.drPool = append(t.drPool, dr) }

// ProbePending emits the in-flight burst count to p on track as counter
// name when it changed since the last emission.
func (t *InFlight) ProbePending(p obs.Probe, track obs.Track, name string, cycle int64) {
	if t.pending != t.lastPending {
		p.Counter(track, name, cycle, float64(t.pending))
		t.lastPending = t.pending
	}
}

// Completed implements Fabric. The returned slice is valid until the next
// Completed call: the table keeps two buffers and swaps them, so the
// steady state performs no allocation.
func (t *InFlight) Completed() []*MemReq {
	out := t.done
	t.done = t.doneSpare[:0]
	t.doneSpare = out
	return out
}

// Pending implements Fabric.
func (t *InFlight) Pending() int { return t.pending }
