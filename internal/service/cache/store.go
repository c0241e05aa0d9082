package cache

import (
	"sync"
	"sync/atomic"
)

// Store is a content-addressed blob store: keys are canonical content
// hashes (CanonicalHash, LatencyKey), values are opaque artifact bytes.
// Implementations must be safe for concurrent use and must treat any entry
// they cannot fully verify (corrupt, truncated, written by an incompatible
// schema version) as absent — callers always fall back to recomputing.
type Store interface {
	// Get returns the artifact stored under key, or ok=false on any kind
	// of miss (absent, corrupt, stale version).
	Get(key string) ([]byte, bool)
	// Put stores the artifact under key, overwriting a previous value.
	Put(key string, data []byte) error
	// Stats reports Get hits and misses so far.
	Stats() (hits, misses int64)
}

// Memory is the in-process Store tier: a plain mutex-guarded map.
type Memory struct {
	mu sync.Mutex
	m  map[string][]byte

	hits, misses atomic.Int64
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{m: map[string][]byte{}}
}

// Get implements Store.
func (s *Memory) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	data, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return append([]byte(nil), data...), true
}

// Put implements Store.
func (s *Memory) Put(key string, data []byte) error {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

// Stats implements Store.
func (s *Memory) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// Layered stacks a fast tier over a slow one (memory over disk): Get tries
// fast first and backfills it on a slow-tier hit; Put writes through to
// both. Its Stats count Layered's own outcomes — a hit in either tier is
// one hit — while the per-tier stores keep their own counts.
type Layered struct {
	fast, slow Store

	hits, misses atomic.Int64
}

// NewLayered returns the two-tier store. Both tiers must be non-nil.
func NewLayered(fast, slow Store) *Layered {
	return &Layered{fast: fast, slow: slow}
}

// Get implements Store.
func (s *Layered) Get(key string) ([]byte, bool) {
	if data, ok := s.fast.Get(key); ok {
		s.hits.Add(1)
		return data, true
	}
	data, ok := s.slow.Get(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	// Backfill so the next lookup stays in the fast tier. A backfill
	// failure only costs future speed, never correctness.
	_ = s.fast.Put(key, data)
	return data, true
}

// Put implements Store.
func (s *Layered) Put(key string, data []byte) error {
	if err := s.fast.Put(key, data); err != nil {
		return err
	}
	return s.slow.Put(key, data)
}

// Stats implements Store.
func (s *Layered) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}
