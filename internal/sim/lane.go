package sim

import "slices"

// MonotonicQueue is an event queue for producers whose due cycles are
// monotone nondecreasing within each lane — the common shape of pipelined
// hardware models, where each channel's data bus or each port's
// serialization clock only moves forward. Such producers schedule into a
// narrow, advancing band of cycles, so the queue keeps one bucket per
// distinct due cycle, sorted by cycle, and appends each event to its
// cycle's bucket. A bucket is then already in insertion order: delivering
// an event is a copy out of the front bucket — no comparison, whatever the
// lane count — and NextCycle is a read of the front bucket. Push finds its
// bucket by binary search over the distinct cycles in flight (the back
// bucket, the common case, is checked first); a cycle not seen yet opens a
// bucket, at the back unless a slower lane is catching up.
//
// Pops come out ordered by (due cycle, global insertion sequence) — the
// exact order EventQueue produces — so swapping one for the other never
// changes simulation results, only the cost of reaching them.
type MonotonicQueue[T any] struct {
	// buckets[head:] are the live buckets in ascending cycle order;
	// entries before head are spent (see CompactFIFO).
	buckets []cycleBucket[T]
	head    int
	free    [][]laneEv[T] // spent buckets' storage, reused by new ones
	lanes   []laneState
	n       int
}

type cycleBucket[T any] struct {
	cycle int64
	evs   []laneEv[T]
}

type laneEv[T any] struct {
	lane int32
	v    T
}

// laneState is what the monotonicity check needs: how many of the lane's
// events are still queued, and the due cycle of its latest one.
type laneState struct {
	queued int
	last   int64
}

// NewMonotonicQueue returns a queue with the given number of lanes.
func NewMonotonicQueue[T any](lanes int) *MonotonicQueue[T] {
	return &MonotonicQueue[T]{lanes: make([]laneState, lanes)}
}

// AddLane grows the queue by one lane and returns its index.
func (q *MonotonicQueue[T]) AddLane() int {
	q.lanes = append(q.lanes, laneState{})
	return len(q.lanes) - 1
}

// Len returns the number of queued events.
func (q *MonotonicQueue[T]) Len() int { return q.n }

// NextCycle returns the due cycle of the earliest event, or Never when
// empty.
func (q *MonotonicQueue[T]) NextCycle() int64 {
	if q.head == len(q.buckets) {
		return Never
	}
	return q.buckets[q.head].cycle
}

// Push schedules v at the given cycle on a lane. Cycles must be monotone
// nondecreasing per lane; a violation panics rather than silently
// reordering deliveries.
func (q *MonotonicQueue[T]) Push(lane int, cycle int64, v T) {
	l := &q.lanes[lane]
	if l.queued > 0 && cycle < l.last {
		panic("sim: MonotonicQueue lane cycle decreased")
	}
	l.queued++
	l.last = cycle
	b := q.bucket(cycle)
	b.evs = append(b.evs, laneEv[T]{lane: int32(lane), v: v})
	q.n++
}

// bucket returns the live bucket for cycle, opening it if need be.
func (q *MonotonicQueue[T]) bucket(cycle int64) *cycleBucket[T] {
	// lo becomes the index of the first live bucket with cycle >= the
	// wanted one: the back bucket or one past it, else by binary search.
	lo, hi := q.head, len(q.buckets)
	if hi > lo && q.buckets[hi-1].cycle <= cycle {
		lo = hi - 1
		if q.buckets[lo].cycle < cycle {
			lo = hi
		}
	} else {
		for lo < hi {
			if mid := int(uint(lo+hi) / 2); q.buckets[mid].cycle < cycle {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	if lo < len(q.buckets) && q.buckets[lo].cycle == cycle {
		return &q.buckets[lo]
	}
	b := cycleBucket[T]{cycle: cycle}
	if k := len(q.free); k > 0 {
		b.evs, q.free = q.free[k-1], q.free[:k-1]
	}
	if lo == len(q.buckets) {
		q.buckets = append(q.buckets, b)
	} else {
		q.buckets = slices.Insert(q.buckets, lo, b)
	}
	return &q.buckets[lo]
}

// PopDue appends to out every event due at or before cycle, in due-cycle
// then insertion order, and returns the extended slice.
func (q *MonotonicQueue[T]) PopDue(cycle int64, out []T) []T {
	for q.head < len(q.buckets) && q.buckets[q.head].cycle <= cycle {
		b := &q.buckets[q.head]
		for i := range b.evs {
			out = append(out, b.evs[i].v)
			q.lanes[b.evs[i].lane].queued--
		}
		q.n -= len(b.evs)
		clear(b.evs) // release the payloads for GC
		q.free = append(q.free, b.evs[:0])
		q.head++
	}
	q.buckets, q.head = CompactFIFO(q.buckets, q.head)
	return out
}

// CompactFIFO tidies a head-indexed FIFO — a slice q whose live entries are
// q[head:], consumed by advancing head instead of shifting — after head
// moved: an empty FIFO is reset, and the (smaller) live tail is shifted
// down once per >=1024 consumed entries, so a FIFO that never runs empty
// does not grow without bound yet draining costs O(consumed), not O(len).
func CompactFIFO[T any](q []T, head int) ([]T, int) {
	switch {
	case head == len(q):
		return q[:0], 0
	case head >= 1024 && 2*head >= len(q):
		return q[:copy(q, q[head:])], 0
	}
	return q, head
}
