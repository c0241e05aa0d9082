package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// queuePair drives a MonotonicQueue and the EventQueue oracle in
// lock-step. Every operation is followed by a NextCycle/Len comparison,
// and every PopDue by an element-wise one: on any stream of pushes that is
// monotone per lane, MonotonicQueue must pop in exactly the (cycle,
// insertion) order the stable heap produces.
type queuePair struct {
	t      testing.TB
	mq     *MonotonicQueue[int]
	eq     EventQueue[int]
	clock  []int64 // per lane: due cycle of its latest push
	queued []int   // per lane: events not yet popped
	laneOf []int   // per event id: the lane it was pushed on
	now    int64   // cycle of the latest PopDue
}

func newQueuePair(t testing.TB, lanes int) *queuePair {
	p := &queuePair{t: t, mq: NewMonotonicQueue[int](lanes),
		clock: make([]int64, lanes), queued: make([]int, lanes)}
	p.check("new")
	return p
}

func (p *queuePair) lanes() int { return len(p.clock) }

func (p *queuePair) check(op string) {
	p.t.Helper()
	if g, w := p.mq.NextCycle(), p.eq.NextCycle(); g != w {
		p.t.Fatalf("after %s: NextCycle = %d, oracle %d", op, g, w)
	}
	if g, w := p.mq.Len(), p.eq.Len(); g != w {
		p.t.Fatalf("after %s: Len = %d, oracle %d", op, g, w)
	}
}

func (p *queuePair) push(lane int, cycle int64) {
	p.t.Helper()
	id := len(p.laneOf)
	p.laneOf = append(p.laneOf, lane)
	p.clock[lane] = cycle
	p.queued[lane]++
	p.mq.Push(lane, cycle, id)
	p.eq.Push(cycle, id)
	p.check(fmt.Sprintf("Push(%d, %d)", lane, cycle))
}

func (p *queuePair) popDue(cycle int64) {
	p.t.Helper()
	p.now = cycle
	got := p.mq.PopDue(cycle, nil)
	want := p.eq.PopDue(cycle, nil)
	if len(got) != len(want) {
		p.t.Fatalf("PopDue(%d): %d events, oracle %d", cycle, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			p.t.Fatalf("PopDue(%d)[%d] = event %d, oracle %d", cycle, k, got[k], want[k])
		}
		p.queued[p.laneOf[got[k]]]--
	}
	p.check(fmt.Sprintf("PopDue(%d)", cycle))
}

func (p *queuePair) addLane() {
	p.t.Helper()
	if g := p.mq.AddLane(); g != p.lanes() {
		p.t.Fatalf("AddLane = %d, want %d", g, p.lanes())
	}
	p.clock = append(p.clock, 0)
	p.queued = append(p.queued, 0)
	p.check("AddLane")
}

func (p *queuePair) drain() {
	p.t.Helper()
	p.popDue(math.MaxInt64)
	if p.mq.Len() != 0 {
		p.t.Fatalf("%d events left after the final drain", p.mq.Len())
	}
}

func TestMonotonicQueueMatchesEventQueue(t *testing.T) {
	shapes := []struct {
		name     string
		maxDelta int64 // per-push lane clock advance is in [0, maxDelta)
		pushes   int   // pushes between two PopDue calls are in [0, pushes]
		maxStep  int64 // PopDue cycle advance is in [0, maxStep)
		gapEvery int   // every gapEvery-th PopDue jumps far ahead (0 = never)
		grow     bool  // AddLane now and then, up to twice the initial lanes
	}{
		// The old test's shape: everything pushed up front, then popped.
		{name: "bulk", maxDelta: 7, pushes: 10_000, maxStep: 4},
		// One event per lane per cycle with a pipeline's worth in flight:
		// every PopDue is a same-cycle tie across all lanes.
		{name: "saturated", maxDelta: 2, pushes: 64, maxStep: 2},
		{name: "sparse", maxDelta: 50, pushes: 2, maxStep: 30},
		// Idle gaps, the SkipTo shape: the queue drains, time jumps, lanes
		// restart behind one another.
		{name: "idle-gaps", maxDelta: 5, pushes: 8, maxStep: 3, gapEvery: 7},
		{name: "add-lane", maxDelta: 4, pushes: 12, maxStep: 3, gapEvery: 31, grow: true},
	}
	for _, lanes := range []int{1, 2, 5, 32, 64} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("lanes=%d/%s", lanes, sh.name), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(lanes)*1000 + int64(len(sh.name))))
				p := newQueuePair(t, lanes)
				for pops := 1; len(p.laneOf) < 10_000; pops++ {
					for n := r.Intn(sh.pushes + 1); n > 0; n-- {
						lane := r.Intn(p.lanes())
						cycle := p.clock[lane] + r.Int63n(sh.maxDelta)
						if p.queued[lane] == 0 && cycle <= p.now {
							// A drained lane restarts from the present, as
							// a hardware model's would after an idle gap.
							cycle = p.now + 1 + r.Int63n(sh.maxDelta)
						}
						p.push(lane, cycle)
					}
					if sh.grow && p.lanes() < 2*lanes && r.Intn(8) == 0 {
						p.addLane()
					}
					step := r.Int63n(sh.maxStep)
					if sh.gapEvery > 0 && pops%sh.gapEvery == 0 {
						step = 1000 + r.Int63n(100_000)
					}
					p.popDue(p.now + step)
				}
				p.drain()
			})
		}
	}
}

// TestMonotonicQueueDrainedLaneMayRestartEarlier: monotonicity is a
// property of the events a lane has queued; once they are all delivered
// the lane may schedule at any cycle, even one already popped past.
func TestMonotonicQueueDrainedLaneMayRestartEarlier(t *testing.T) {
	p := newQueuePair(t, 2)
	p.push(0, 10)
	p.push(1, 12)
	p.popDue(10)
	p.push(0, 3) // lane 0 is empty again: legal, and due immediately
	p.push(1, 12)
	p.popDue(11)
	p.drain()
}

// TestMonotonicQueueRejectsRegression: a lane pushing backwards in time is
// a modeling bug and must panic.
func TestMonotonicQueueRejectsRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on regressing lane cycle")
		}
	}()
	q := NewMonotonicQueue[int](1)
	q.Push(0, 10, 1)
	q.Push(0, 9, 2)
}

// FuzzMonotonicQueue interprets the input as a program of queue
// operations and checks every step against the EventQueue oracle. The
// first byte picks the initial lane count; then each operation is an
// opcode byte followed by its operands:
//
//	push    lane, delta   lane clock += delta%8 (small, so cycles tie);
//	                      a drained lane may instead restart delta cycles
//	                      before the last PopDue (delta's top bit)
//	popDue  advance       advance%16 cycles, or a long idle gap (>= 240)
//	addLane               up to 64 lanes
func FuzzMonotonicQueue(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 1, 1, 2, 1, 3, 1, 2, 0, 2, 250}) // testdata/fuzz holds the rest
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		p := newQueuePair(t, int(prog[0])%33)
		prog = prog[1:]
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		for len(prog) > 0 {
			switch op := next() % 4; {
			case op <= 1 && p.lanes() > 0:
				lane, d := next()%p.lanes(), next()
				cycle := p.clock[lane] + int64(d%8)
				if d >= 128 && p.queued[lane] == 0 {
					cycle = max(p.now-int64(d%8), 0)
				}
				p.push(lane, cycle)
			case op == 2:
				adv := next()
				step := int64(adv % 16)
				if adv >= 240 {
					step = int64(adv-239) * 1000
				}
				p.popDue(p.now + step)
			case op == 3 && p.lanes() < 64:
				p.addLane()
			}
		}
		p.drain()
	})
}
