package service

import (
	"sync"

	"repro/internal/compiler"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/service/cache"
	"repro/internal/service/modelzoo"
)

// CompileKey returns the content address of one compilation: the canonical
// hash of (model spec, NPU configuration, compiler options). Anything that
// changes the compiled TOGs or their tile latencies is in the key; anything
// that only changes how the result is simulated (interconnect model, cycle
// limits) is not.
func CompileKey(spec modelzoo.Spec, cfg npu.Config, opts compiler.Options) string {
	return cache.CanonicalHash(spec.Normalize(), cfg, opts)
}

// ContentKey resolves a wire JobSpec to its compile content address — the
// same key the service's cache uses. The fleet coordinator routes jobs by
// this key so identical submissions land on the member whose caches are
// already warm for them. Tenant, priority, and simulation-only knobs are
// deliberately absent: they never change what gets compiled.
func ContentKey(spec JobSpec) (string, error) {
	// The same Resolve that Submit admits with, so the coordinator rejects
	// exactly what a member would.
	r, err := spec.Resolve()
	if err != nil {
		return "", err
	}
	return CompileKey(r.Spec, r.Cfg, r.Opts), nil
}

// artifactEntries bounds the compiled artifacts the compile cache keeps;
// in-flight compiles are never evicted and do not count. A plain job reads
// its artifact only while it simulates: the result cache serves a repeated
// spec without it, so a few artifacts cover the misses running at once and
// specs that differ only in how they are simulated (net, max_cycles). A
// serving job keeps its iteration artifacts only for its own run; an exact
// repeat is a result hit, but a different trace that shares more shapes
// with it than this re-lowers them: a recompile measures no kernel,
// because the per-core latency caches stay, but it does rerun lowering
// (DESIGN.md "Bounded tables" has the measured cost).
const artifactEntries = 8

// Cache is the content-addressed compile cache of the simulation service:
// it stores, per CompileKey, the compiled TOGs plus the tile-latency table,
// so repeated or swept requests skip compilation (and even distinct models
// on the same core configuration reuse each other's kernel measurements
// through the shared per-core latency cache). It keeps the artifactEntries
// most recently used artifacts, and the kernel latencies behind them for
// its whole life. An attached Store is handed to every per-core latency
// cache, which reads each kernel it lacks from the store and writes each
// new measurement back as its own entry — the paper's offline tile-latency
// cache surviving process restarts and shared across a fleet.
type Cache struct {
	arts *flightTable[*compiler.Compiled]

	mu sync.Mutex
	// lat shares measured kernel latencies across compilations, keyed by
	// the core configuration they were measured on (latencies depend only
	// on npu.CoreConfig, not on the full machine). The caches are the
	// compiler's own thread-safe singleflight tables, so compilations on
	// different workers dedupe measurements live, not just after the fact.
	lat      map[string]*compiler.LatencyCache
	store    cache.Store
	hook     func(*compiler.Compiler)
	measured int64
}

// NewCache returns an empty compile cache.
func NewCache() *Cache {
	return &Cache{
		arts: newFlightTable[*compiler.Compiled](artifactEntries),
		lat:  map[string]*compiler.LatencyCache{},
	}
}

// SetStore attaches the persistent artifact tier to every per-core latency
// cache, present and future. Call before serving.
func (c *Cache) SetStore(st cache.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
	for _, lc := range c.lat {
		lc.SetStore(st)
	}
}

// SetCompilerHook registers a function applied to every compiler the cache
// creates — the service uses it to attach phase-latency metrics and worker
// limits. Call before serving.
func (c *Cache) SetCompilerHook(f func(*compiler.Compiler)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = f
}

// StoreStats reports the persistent tier's hits and misses (zeros when no
// store is attached).
func (c *Cache) StoreStats() (hits, misses int64) {
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	if st == nil {
		return 0, 0
	}
	return st.Stats()
}

// Stats reports cache hits and misses so far. A hit is any Compile call
// served by a finished or in-flight entry; a miss is a call that ran the
// compiler.
func (c *Cache) Stats() (hits, misses int64) {
	hits, misses, _, _ = c.arts.stats()
	return hits, misses
}

// Evictions reports the artifacts dropped so far to keep the cache within
// its bound.
func (c *Cache) Evictions() int64 {
	_, _, ev, _ := c.arts.stats()
	return ev
}

// Measured reports kernel measurements run by compilations so far. A
// compile whose every kernel was already cached or stored (on disk or at a
// fleet peer) contributes zero — the observable pin for "warm cache, no
// recompute".
func (c *Cache) Measured() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.measured
}

// Compile returns the compilation for key, building it at most once per
// key across all concurrent callers. Errors are not cached: a failed build
// clears the entry so a later call can retry, and waiters on the failed
// entry receive the error without being counted as hits.
func (c *Cache) Compile(key string, cfg npu.Config, opts compiler.Options,
	build func() (*graph.Graph, error)) (*compiler.Compiled, bool, error) {
	return c.arts.Do(key, func() (*compiler.Compiled, error) {
		comp := c.compiler(cfg, opts)
		g, err := build()
		if err != nil {
			return nil, err
		}
		out, err := comp.Compile(g)
		if err == nil {
			c.mu.Lock()
			c.measured += comp.MeasureCount()
			c.mu.Unlock()
		}
		return out, err
	})
}

// compiler returns a new compiler for cfg and opts over the shared latency
// cache of cfg's core, with the compiler hook applied.
func (c *Cache) compiler(cfg npu.Config, opts compiler.Options) *compiler.Compiler {
	c.mu.Lock()
	defer c.mu.Unlock()
	coreKey := cache.CanonicalHash(cfg.Core)
	lc := c.lat[coreKey]
	if lc == nil {
		lc = compiler.NewLatencyCache(cfg.Core)
		lc.SetStore(c.store)
		c.lat[coreKey] = lc
	}
	comp := compiler.NewShared(cfg, opts, lc)
	if c.hook != nil {
		c.hook(comp)
	}
	return comp
}

// CompileSpec is Compile for a model-zoo spec: it derives the spec's
// CompileKey, builds the graph through modelzoo.BuildFor on a miss, and
// returns the key alongside the compilation.
func (c *Cache) CompileSpec(spec modelzoo.Spec, cfg npu.Config, opts compiler.Options) (*compiler.Compiled, string, bool, error) {
	key := CompileKey(spec, cfg, opts)
	comp, hit, err := c.Compile(key, cfg, opts, func() (*graph.Graph, error) {
		return modelzoo.BuildFor(spec, cfg.Mem)
	})
	return comp, key, hit, err
}
