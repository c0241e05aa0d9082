package compiler

import (
	"sync"

	"repro/internal/npu"
	"repro/internal/service/cache"
)

// LatencyCache is the thread-safe kernel-latency table (the paper's
// tile-latency / TOG cache, §3.10): measured cycle counts keyed by kernel
// signature. One cache can back any number of Compilers concurrently — the
// autotune sweep and the service's per-core tables share a single instance
// so a kernel shape is measured at most once per process, with singleflight
// so concurrent compilations needing the same signature block on one
// measurement instead of duplicating it.
//
// With a store attached (SetStore), every signature the cache does not hold
// is looked up in the store before it is measured, and every measurement is
// written back as its own immutable entry (cache.LatencyKey). This is the
// only code that reads or writes latency entries.
//
// Signatures encode the full kernel spec but not the core configuration: a
// cache belongs to the core it was made for, and compilers sharing it must
// target that npu.CoreConfig.
type LatencyCache struct {
	core npu.CoreConfig

	mu       sync.Mutex
	m        map[string]int64
	inflight map[string]chan struct{}
	store    cache.Store
	coreHash string // cache.CanonicalHash(core), set with the store
}

// NewLatencyCache returns an empty latency cache for kernels measured on
// core.
func NewLatencyCache(core npu.CoreConfig) *LatencyCache {
	return &LatencyCache{core: core, m: map[string]int64{}, inflight: map[string]chan struct{}{}}
}

// SetStore attaches the persistent tier that latencies are read from on a
// miss and written to after a measurement (nil detaches it). Lookups
// already in flight keep the store they started with.
func (lc *LatencyCache) SetStore(st cache.Store) {
	var coreHash string
	if st != nil {
		coreHash = cache.CanonicalHash(lc.core)
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.store, lc.coreHash = st, coreHash
}

// Get returns the cached latency for a signature.
func (lc *LatencyCache) Get(sig string) (int64, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	v, ok := lc.m[sig]
	return v, ok
}

// Len reports the number of cached signatures.
func (lc *LatencyCache) Len() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.m)
}

// Snapshot returns a copy of the table.
func (lc *LatencyCache) Snapshot() map[string]int64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[string]int64, len(lc.m))
	for k, v := range lc.m {
		out[k] = v
	}
	return out
}

// resolve returns the latency for sig, running measure at most once across
// all concurrent callers (singleflight). measured reports whether THIS call
// performed the measurement; waiters served by another caller's result, by
// the cache or by the store return measured=false. A failed measurement is
// not cached: each waiter retries, so transient errors do not poison the
// signature.
func (lc *LatencyCache) resolve(sig string, measure func() (int64, error)) (lat int64, measured bool, err error) {
	for {
		lc.mu.Lock()
		if v, ok := lc.m[sig]; ok {
			lc.mu.Unlock()
			return v, false, nil
		}
		if done, ok := lc.inflight[sig]; ok {
			lc.mu.Unlock()
			<-done
			continue // winner stored a value or failed; re-check
		}
		done := make(chan struct{})
		lc.inflight[sig] = done
		st, coreHash := lc.store, lc.coreHash
		lc.mu.Unlock()

		v, measured, err := load(st, coreHash, sig, measure)
		lc.mu.Lock()
		delete(lc.inflight, sig)
		if err == nil {
			lc.m[sig] = v
		}
		lc.mu.Unlock()
		close(done)
		if err != nil {
			return 0, false, err
		}
		return v, measured, nil
	}
}

// load is the singleflight winner's work: a store hit returns without
// measuring; a miss measures and stores the result. The write is
// best-effort — a failed Put only costs a later re-measure.
func load(st cache.Store, coreHash, sig string, measure func() (int64, error)) (int64, bool, error) {
	if st == nil {
		v, err := measure()
		return v, err == nil, err
	}
	key := cache.LatencyKey(coreHash, sig)
	if data, ok := st.Get(key); ok {
		if v, ok := cache.DecodeLatency(data); ok {
			return v, false, nil
		}
	}
	v, err := measure()
	if err != nil {
		return 0, false, err
	}
	_ = st.Put(key, cache.EncodeLatency(v))
	return v, true, nil
}
