package sched

import (
	"container/heap"
	"fmt"
	"sync"
)

// FairQueue is a bounded, multi-tenant weighted-fair queue: each tenant
// gets its own priority-ordered FIFO, and Pop interleaves tenants by
// virtual finish time so a tenant with weight w receives a w-proportional
// share of dequeues under contention — one hot tenant can fill its own
// queue (typed per-tenant overload) without starving or delaying the
// others. With a single tenant and uniform priorities it degrades to a
// plain FIFO, so it is a drop-in replacement for a channel-backed queue.
//
// Pop blocks until an item is available; after Close it keeps draining
// whatever is queued and then reports exhaustion, matching the semantics
// of ranging over a closed channel.
type FairQueue[T any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cap     int // total bound across tenants
	tcap    int // per-tenant bound
	weight  func(string) int
	tenants map[string]*tenantQueue[T]
	size    int
	vtime   float64 // virtual time of the last dequeue
	seq     int64   // global arrival order, ties broken FIFO
	closed  bool
}

// tenantQueue is one tenant's backlog plus its WFQ bookkeeping.
type tenantQueue[T any] struct {
	items  itemHeap[T]
	finish float64 // virtual finish time of the last dequeued item
	weight float64
}

type queued[T any] struct {
	v    T
	prio int
	seq  int64
}

// itemHeap orders by priority (higher first), then arrival order.
type itemHeap[T any] []queued[T]

func (h itemHeap[T]) Len() int { return len(h) }
func (h itemHeap[T]) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap[T]) Push(x any)   { *h = append(*h, x.(queued[T])) }
func (h *itemHeap[T]) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// QueueOverloadError is the typed admission failure of a FairQueue push:
// either the whole queue or one tenant's share is full.
type QueueOverloadError struct {
	Tenant   string // "" when the global bound fired
	Capacity int    // the bound that fired
}

func (e *QueueOverloadError) Error() string {
	if e.Tenant == "" {
		return fmt.Sprintf("sched: queue full (capacity %d)", e.Capacity)
	}
	return fmt.Sprintf("sched: tenant %q queue full (per-tenant capacity %d)", e.Tenant, e.Capacity)
}

// NewFairQueue returns an empty queue. capacity bounds the total backlog,
// tenantCapacity bounds each tenant's share (<= 0 means the total bound),
// and weight maps tenant names to positive integer weights (nil or
// non-positive results mean weight 1).
func NewFairQueue[T any](capacity, tenantCapacity int, weight func(string) int) *FairQueue[T] {
	if capacity <= 0 {
		capacity = 64
	}
	if tenantCapacity <= 0 || tenantCapacity > capacity {
		tenantCapacity = capacity
	}
	q := &FairQueue[T]{
		cap:     capacity,
		tcap:    tenantCapacity,
		weight:  weight,
		tenants: map[string]*tenantQueue[T]{},
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues v for tenant with the given priority (higher pops earlier
// within the tenant). It never blocks: a full queue returns
// *QueueOverloadError, a closed queue an error.
func (q *FairQueue[T]) Push(tenant string, priority int, v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fmt.Errorf("sched: queue closed")
	}
	if q.size >= q.cap {
		return &QueueOverloadError{Capacity: q.cap}
	}
	tq := q.tenants[tenant]
	if tq == nil {
		w := 1
		if q.weight != nil {
			if got := q.weight(tenant); got > 0 {
				w = got
			}
		}
		tq = &tenantQueue[T]{weight: float64(w)}
		q.tenants[tenant] = tq
	}
	if len(tq.items) >= q.tcap {
		return &QueueOverloadError{Tenant: tenant, Capacity: q.tcap}
	}
	if len(tq.items) == 0 && tq.finish < q.vtime {
		// A tenant returning from idle starts at the current virtual time:
		// idle periods earn no credit, but neither do they owe debt.
		tq.finish = q.vtime
	}
	q.seq++
	heap.Push(&tq.items, queued[T]{v: v, prio: priority, seq: q.seq})
	q.size++
	q.cond.Signal()
	return nil
}

// Pop dequeues the next item by weighted fair order, blocking while the
// queue is empty. After Close it drains the backlog and then returns
// ok=false forever.
func (q *FairQueue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return v, false
		}
		q.cond.Wait()
	}
	// Pick the backlogged tenant with the smallest virtual finish time
	// F = lastFinish + 1/weight (the idle floor was applied at enqueue);
	// ties break by tenant name so the schedule is deterministic regardless
	// of map iteration order.
	var bestName string
	var best *tenantQueue[T]
	var bestF float64
	for name, tq := range q.tenants {
		if len(tq.items) == 0 {
			continue
		}
		f := tq.finish + 1/tq.weight
		if best == nil || f < bestF || (f == bestF && name < bestName) {
			best, bestName, bestF = tq, name, f
		}
	}
	item := heap.Pop(&best.items).(queued[T])
	best.finish = bestF
	q.vtime = bestF
	q.size--
	return item.v, true
}

// Close stops admission and wakes every blocked Pop. Queued items remain
// poppable (drain semantics).
func (q *FairQueue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len reports the total backlog.
func (q *FairQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Depths reports each tenant's current backlog, omitting idle tenants that
// have never queued. Keys are returned for every tenant seen since the
// queue was created so per-tenant gauges don't vanish when a queue drains.
func (q *FairQueue[T]) Depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.tenants))
	for name, tq := range q.tenants {
		out[name] = len(tq.items)
	}
	return out
}
