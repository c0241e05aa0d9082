package service

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compiler"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/service/cache"
	"repro/internal/service/modelzoo"
)

// Distinct configurations must hash to distinct compile keys: different
// sequence lengths, different core counts, different compiler options.
func TestCompileKeyDistinct(t *testing.T) {
	base := modelzoo.Spec{Model: "bert-base", Batch: 1, Seq: 128}
	cfg := npu.TPUv3Config()
	opts := compiler.DefaultOptions()

	keys := map[string]string{}
	add := func(name, key string) {
		for prev, pk := range keys {
			if pk == key {
				t.Fatalf("%s collides with %s: %s", name, prev, key)
			}
		}
		keys[name] = key
	}
	add("base", CompileKey(base, cfg, opts))

	seq512 := base
	seq512.Seq = 512
	add("seq=512", CompileKey(seq512, cfg, opts))

	batch4 := base
	batch4.Batch = 4
	add("batch=4", CompileKey(batch4, cfg, opts))

	cores4 := cfg
	cores4.Cores = 4
	add("cores=4", CompileKey(base, cores4, opts))

	smallSA := cfg
	smallSA.Core.SARows = 64
	add("sarows=64", CompileKey(base, smallSA, opts))

	noFusion := opts
	noFusion.Fusion = false
	add("fusion=off", CompileKey(base, cfg, noFusion))

	mt64 := opts
	mt64.MaxMt = 64
	add("maxmt=64", CompileKey(base, cfg, mt64))

	gemm := modelzoo.Spec{Model: "gemm", N: 512}
	add("model=gemm", CompileKey(gemm, cfg, opts))
}

// Identical configurations built in different orders — struct fields
// assigned in a different sequence, map entries inserted in a different
// order, shape parameters the model ignores — must hash identically.
func TestCompileKeyCanonical(t *testing.T) {
	opts := compiler.DefaultOptions()

	// Same machine assembled two different ways.
	a := npu.TPUv3Config()
	var b npu.Config
	b.NoC = a.NoC
	b.Mem = a.Mem
	b.Core = a.Core
	b.Energy = a.Energy
	b.FreqMHz = a.FreqMHz
	b.Cores = a.Cores
	b.Name = a.Name
	spec := modelzoo.Spec{Model: "bert-base", Batch: 2, Seq: 384}
	if CompileKey(spec, a, opts) != CompileKey(spec, b, opts) {
		t.Fatal("same npu.Config assembled in different orders hashed differently")
	}

	// gemm ignores Seq and Batch: normalization must drop them.
	g1 := modelzoo.Spec{Model: "gemm", N: 256, Seq: 128, Batch: 3}
	g2 := modelzoo.Spec{Model: "gemm", N: 256}
	if CompileKey(g1, a, opts) != CompileKey(g2, a, opts) {
		t.Fatal("irrelevant shape parameters changed a gemm compile key")
	}

	// Map insertion order must not matter to the canonical hash.
	m1 := map[string]int64{}
	m2 := map[string]int64{}
	for i := 0; i < 32; i++ {
		m1[fmt.Sprintf("k%d", i)] = int64(i)
	}
	for i := 31; i >= 0; i-- {
		m2[fmt.Sprintf("k%d", i)] = int64(i)
	}
	if cache.CanonicalHash(m1) != cache.CanonicalHash(m2) {
		t.Fatal("map insertion order changed the canonical hash")
	}

	// And differing map contents must.
	m2["k0"] = 99
	if cache.CanonicalHash(m1) == cache.CanonicalHash(m2) {
		t.Fatal("differing map contents hashed identically")
	}
}

// N concurrent compiles of the same key run the compiler exactly once
// (singleflight), and every caller gets the same artifact.
func TestCacheSingleflight(t *testing.T) {
	cache := NewCache()
	cfg, _ := modelzoo.NPUConfig("small")
	opts := compiler.DefaultOptions()
	spec := modelzoo.Spec{Model: "gemm", N: 64}
	key := CompileKey(spec, cfg, opts)

	var builds int
	var mu sync.Mutex
	var wg sync.WaitGroup
	const callers = 8
	comps := make([]*compiler.Compiled, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comp, _, err := cache.Compile(key, cfg, opts, func() (*graph.Graph, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				return modelzoo.BuildGraph(spec)
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			comps[i] = comp
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("compiled %d times, want exactly 1", builds)
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("hits=%d misses=%d, want hits=%d misses=1", hits, misses, callers-1)
	}
	for i := 1; i < callers; i++ {
		if comps[i] != comps[0] {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
}

// Errors are not cached: a failed build clears the entry so a later call
// retries, and failed calls count as neither hits nor (lasting) entries.
func TestCacheErrorNotCached(t *testing.T) {
	cache := NewCache()
	cfg, _ := modelzoo.NPUConfig("small")
	opts := compiler.DefaultOptions()
	calls := 0
	build := func() (*graph.Graph, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return modelzoo.BuildGraph(modelzoo.Spec{Model: "gemm", N: 64})
	}
	if _, _, err := cache.Compile("k", cfg, opts, build); err == nil {
		t.Fatal("first compile should fail")
	}
	comp, hit, err := cache.Compile("k", cfg, opts, build)
	if err != nil || comp == nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if hit {
		t.Fatal("retry after failure reported a cache hit")
	}
}

// A compiler whose latency cache shares a store with a previous compile
// skips the timing simulator entirely (no measurer call, MeasureCount 0)
// and produces the identical artifact — the property that lets the store
// persist latencies.
func TestSeededCompilerSkipsMeasurement(t *testing.T) {
	cfg, _ := modelzoo.NPUConfig("small")
	opts := compiler.DefaultOptions()
	g, err := modelzoo.BuildGraph(modelzoo.Spec{Model: "gemm", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewMemory()
	c1 := compiler.New(cfg, opts)
	c1.Cache().SetStore(st)
	a, err := c1.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if c1.MeasureCount() == 0 {
		t.Fatal("first compile measured nothing")
	}

	c2 := compiler.New(cfg, opts)
	c2.Cache().SetStore(st)
	cm := &countingMeasurer{}
	c2.Measurer = cm
	b, err := c2.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if cm.calls.Load() != 0 || c2.MeasureCount() != 0 {
		t.Fatalf("store-backed compile called the measurer %d times (MeasureCount %d), want 0",
			cm.calls.Load(), c2.MeasureCount())
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("store-backed compile produced a different compilation")
	}
}

// countingMeasurer counts calls into the real timing measurer.
type countingMeasurer struct{ calls atomic.Int64 }

func (m *countingMeasurer) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
	m.calls.Add(1)
	return compiler.TimingMeasurer{}.Measure(cfg, p)
}
