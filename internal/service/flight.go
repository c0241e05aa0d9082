package service

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic raised while running a job, turned into the job's
// error: the panic value and the stack of the goroutine that raised it.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v\n\n%s", e.Value, e.Stack) }

// asPanicError wraps a recovered panic value, keeping one that already is a
// *PanicError (and so its original stack).
func asPanicError(p any) *PanicError {
	if pe, ok := p.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: p, Stack: debug.Stack()}
}

// flightTable is a content-addressed singleflight table that keeps at most
// max finished values, evicting the least recently used. It backs both the
// compile cache (key → artifact) and the service's result cache (key →
// JobResult). An in-flight entry is never evicted: it joins the eviction
// order only once its value is set.
type flightTable[V any] struct {
	max int

	mu                      sync.Mutex
	entries                 map[string]*flight[V]
	lru                     list.List // finished entries, most recently used first
	hits, misses, evictions int64
}

// flight is one in-flight or finished computation. ready is closed once
// val and err are set; waiters block on it.
type flight[V any] struct {
	key     string
	ready   chan struct{}
	val     V
	err     error
	elem    *list.Element // position in lru; nil while in flight
	waiters int           // calls that joined the entry, under the table's lock
}

func newFlightTable[V any](max int) *flightTable[V] {
	return &flightTable[V]{max: max, entries: map[string]*flight[V]{}}
}

// Do returns the value for key, running fn at most once across concurrent
// callers: a caller that finds a finished or in-flight entry waits for it
// and reports a hit. Errors are not kept: a failed fn's entry leaves the
// table, so a later call runs fn again, and its waiters receive the error
// without counting as hits. A panic in fn is such an error: the waiters
// receive it as a *PanicError, and the panic goes on in fn's caller.
func (t *flightTable[V]) Do(key string, fn func() (V, error)) (v V, hit bool, err error) {
	t.mu.Lock()
	if f, ok := t.entries[key]; ok {
		if f.elem != nil {
			t.lru.MoveToFront(f.elem)
		}
		f.waiters++
		t.mu.Unlock()
		<-f.ready
		if f.err != nil {
			return v, false, f.err
		}
		t.mu.Lock()
		t.hits++
		t.mu.Unlock()
		return f.val, true, nil
	}
	f := &flight[V]{key: key, ready: make(chan struct{})}
	t.entries[key] = f
	t.misses++
	t.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			pe := asPanicError(p)
			f.err = pe
			t.land(f)
			panic(pe)
		}
	}()
	f.val, f.err = fn()
	t.land(f)
	return f.val, false, f.err
}

// Peek returns key's finished value without blocking and without running
// anything: it counts a hit and makes the entry the most recently used. An
// absent or in-flight key returns false and counts nothing (a failed
// entry has left the table, so it is absent).
func (t *flightTable[V]) Peek(key string) (v V, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.entries[key]
	if f == nil || f.elem == nil {
		return v, false
	}
	t.lru.MoveToFront(f.elem)
	t.hits++
	return f.val, true
}

// land publishes f's outcome and releases its waiters. A value joins the
// eviction order, evicting the least recently used beyond max; an error
// leaves the table.
func (t *flightTable[V]) land(f *flight[V]) {
	t.mu.Lock()
	if f.err != nil {
		delete(t.entries, f.key)
	} else {
		f.elem = t.lru.PushFront(f)
		for t.lru.Len() > t.max {
			old := t.lru.Remove(t.lru.Back()).(*flight[V])
			delete(t.entries, old.key)
			t.evictions++
		}
	}
	t.mu.Unlock()
	close(f.ready)
}

// stats reports hits (calls served by an entry), misses (calls that ran
// fn), evictions, and the number of entries held, in flight or finished.
func (t *flightTable[V]) stats() (hits, misses, evictions int64, held int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses, t.evictions, len(t.entries)
}
