package service

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/sched"
)

// ErrClosed is the admission failure of a front end that has begun to shut
// down. The HTTP layer maps it to 503, so a fleet coordinator re-dispatches
// a job a draining member turned away instead of failing it.
var ErrClosed = errors.New("service: closed")

// Board is the one job lifecycle behind both front ends, a ptsimd Service
// and a fleet Coordinator (§3.10's multi-tenant path): admission into a
// bounded weighted-fair queue, ID minting, lookup, Wait, the lifecycle
// counters, a worker pool and a draining Close. J is the front end's job
// record; what a worker does with a job, its events and any extra counters
// stay with the front end.
//
// The board's lock guards its counters and every live record: a front end
// mutates a record only inside Locked or Finish, and may keep its own
// counters under the same lock (see Counts) so its stats are one snapshot.
// Every callback the board runs under its lock (snapshot, newJob, Locked's
// f, Finish's set, Counts' also) must only read and write fields: it must
// not block or call back into the board.
type Board[J any] struct {
	prefix   string
	snapshot func(*J) J
	queue    *sched.FairQueue[*J]

	mu         sync.Mutex
	byID       map[string]*boardEntry[J]
	nextID     int64
	closed     bool
	counts     Counts
	tenantDone map[string]int64

	wg sync.WaitGroup
}

type boardEntry[J any] struct {
	rec      *J
	tenant   string
	done     chan struct{}
	finished bool
}

// Counts is one snapshot of a board's lifecycle counters.
type Counts struct {
	Submitted, Queued, Running, Done, Failed int64
	Duplicates                               int64 // Finish calls on finished jobs
	// Per-tenant queue depth and finished jobs; nil while empty.
	TenantQueued, TenantDone map[string]int64
}

// NewBoard returns an empty board minting job IDs prefix1, prefix2, ...
// Its queue holds queueDepth jobs, tenantQueueDepth per tenant (0 = all),
// shared by weights (absent tenants weigh 1). snapshot copies a live
// record for callers; it runs under the lock.
func NewBoard[J any](prefix string, queueDepth, tenantQueueDepth int, weights map[string]int, snapshot func(*J) J) *Board[J] {
	weight := func(tenant string) int { return weights[tenant] }
	return &Board[J]{
		prefix:     prefix,
		snapshot:   snapshot,
		queue:      sched.NewFairQueue[*J](queueDepth, tenantQueueDepth, weight),
		byID:       map[string]*boardEntry[J]{},
		tenantDone: map[string]int64{},
	}
}

// Submit admits one job for tenant at priority, its record built by newJob
// from the minted ID. It never blocks: a full queue returns *OverloadError,
// a full tenant share *TenantOverloadError, a closed board ErrClosed, and a
// rejected job consumes no ID.
func (b *Board[J]) Submit(tenant string, priority int, newJob func(id string) *J) (snap J, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return snap, ErrClosed
	}
	id := fmt.Sprintf("%s%d", b.prefix, b.nextID+1)
	rec := newJob(id)
	if err := b.queue.Push(tenant, priority, rec); err != nil {
		var over *sched.QueueOverloadError
		switch {
		case !errors.As(err, &over):
			return snap, err
		case over.Tenant != "":
			return snap, &TenantOverloadError{Tenant: over.Tenant, Capacity: over.Capacity}
		}
		return snap, &OverloadError{Capacity: over.Capacity}
	}
	b.nextID++
	b.byID[id] = &boardEntry[J]{rec: rec, tenant: tenant, done: make(chan struct{})}
	b.counts.Submitted++
	b.counts.Queued++
	return b.snapshot(rec), nil
}

// Record admits one job for tenant that is finished at admission: it takes
// no queue slot and no worker. newJob builds the record, already in its
// terminal state, from the next minted ID; it runs under the lock, so it
// may also book the front end's counters. The job counts as submitted and
// done, and Wait returns at once. A closed board returns ErrClosed.
func (b *Board[J]) Record(tenant string, newJob func(id string) *J) (snap J, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return snap, ErrClosed
	}
	b.nextID++
	id := fmt.Sprintf("%s%d", b.prefix, b.nextID)
	rec := newJob(id)
	done := make(chan struct{})
	close(done)
	b.byID[id] = &boardEntry[J]{rec: rec, tenant: tenant, done: done, finished: true}
	b.counts.Submitted++
	b.counts.Done++
	b.tenantDone[tenant]++
	return b.snapshot(rec), nil
}

// Get returns a snapshot of the job with the given ID.
func (b *Board[J]) Get(id string) (snap J, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.byID[id]; ok {
		return b.snapshot(e.rec), true
	}
	return snap, false
}

// Wait blocks until the job is finished and returns its final snapshot.
func (b *Board[J]) Wait(id string) (snap J, err error) {
	b.mu.Lock()
	e, ok := b.byID[id]
	b.mu.Unlock()
	if !ok {
		return snap, fmt.Errorf("service: unknown job %q", id)
	}
	<-e.done
	snap, _ = b.Get(id)
	return snap, nil
}

// Locked runs f under the board's lock.
func (b *Board[J]) Locked(f func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f()
}

// Counts returns the lifecycle counters. also, when non-nil, runs under the
// same lock, so the front end's own counters join the snapshot.
func (b *Board[J]) Counts(also func()) Counts {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.counts
	if len(b.tenantDone) > 0 {
		c.TenantDone = make(map[string]int64, len(b.tenantDone))
		for t, n := range b.tenantDone {
			c.TenantDone[t] = n
		}
	}
	// b.mu -> queue.mu is the order Submit takes the two locks in too.
	if depths := b.queue.Depths(); len(depths) > 0 {
		c.TenantQueued = make(map[string]int64, len(depths))
		for t, n := range depths {
			c.TenantQueued[t] = int64(n)
		}
	}
	if also != nil {
		also()
	}
	return c
}

// Start launches n workers. Each pops jobs in weighted-fair order, counts
// them running and calls run, which must end each job with Finish.
func (b *Board[J]) Start(n int, run func(*J)) {
	for i := 0; i < n; i++ {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			for rec, ok := b.queue.Pop(); ok; rec, ok = b.queue.Pop() {
				b.Locked(func() { b.counts.Queued--; b.counts.Running++ })
				run(rec)
			}
		}()
	}
}

// Finish ends job id exactly once. Under the lock, set writes the record's
// terminal fields and reports whether the job failed, and the board counts
// it for its tenant; then, outside the lock, after runs (the front end's
// terminal events) before Wait returns. Finishing a finished job only
// counts a duplicate.
func (b *Board[J]) Finish(id string, set func() (failed bool), after func()) {
	b.mu.Lock()
	e := b.byID[id]
	if e.finished {
		b.counts.Duplicates++
		b.mu.Unlock()
		return
	}
	e.finished = true
	b.counts.Running--
	if set() {
		b.counts.Failed++
	} else {
		b.counts.Done++
	}
	b.tenantDone[e.tenant]++
	b.mu.Unlock()
	after()
	close(e.done)
}

// Close stops admission (Submit returns ErrClosed from then on), lets the
// workers drain every queued job and waits for them. It is idempotent.
func (b *Board[J]) Close() {
	b.Locked(func() { b.closed = true })
	b.queue.Close()
	b.wg.Wait()
}
