// Tests for the staged pass pipeline's concurrency contract: Compile must
// be safe to call from many goroutines on one Compiler (run with -race),
// worker-count must never change the output, and the measure pass must
// singleflight shared kernel signatures.
package compiler

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/tensor"
)

// countingMeasurer wraps the real measurer and counts invocations, so
// tests can assert on singleflight behaviour independent of the
// compiler's own counters.
type countingMeasurer struct {
	calls atomic.Int64
	real  TimingMeasurer
}

func (m *countingMeasurer) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
	m.calls.Add(1)
	return m.real.Measure(cfg, p)
}

func testGraph() *graph.Graph { return linearGraph(24, 32, 16, true) }

// TestConcurrentCompileSameCompiler hammers one Compiler from many
// goroutines with the same model. Under -race this catches any unsynchronized
// state in the pass pipeline; functionally, every result must be identical
// and shared signatures must be measured exactly once across all calls.
func TestConcurrentCompileSameCompiler(t *testing.T) {
	cm := &countingMeasurer{}
	c := New(small(), DefaultOptions())
	c.Measurer = cm

	const goroutines = 8
	comps := make([]*Compiled, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comps[i], errs[i] = c.Compile(testGraph())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		if !reflect.DeepEqual(comps[0], comps[i]) {
			t.Fatalf("concurrent compile %d diverged from compile 0", i)
		}
	}
	if got, want := cm.calls.Load(), int64(c.Cache().Len()); got != want {
		t.Fatalf("measurer invoked %d times for %d unique signatures — singleflight failed", got, want)
	}
	if c.MeasureCount() != cm.calls.Load() {
		t.Fatalf("MeasureCount()=%d but measurer saw %d calls", c.MeasureCount(), cm.calls.Load())
	}
}

// TestWorkerCountIsInvisible compiles the same graph with worker counts 1,
// 2, and 8 and requires bit-identical results — the determinism contract
// of DESIGN.md's "Compiler pipeline" section.
func TestWorkerCountIsInvisible(t *testing.T) {
	var base *Compiled
	for _, workers := range []int{1, 2, 8} {
		c := New(small(), DefaultOptions())
		c.Workers = workers
		comp, err := c.Compile(testGraph())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = comp
			continue
		}
		if !reflect.DeepEqual(base, comp) {
			t.Fatalf("workers=%d produced a different compilation than workers=1", workers)
		}
	}
}

// TestRecycledMeasurePassMatchesFreshCores compiles with the default
// measurer, which recycles its measuring cores within the measure pass, and
// with the zero TimingMeasurer, which measures every kernel on a fresh
// core: the latencies and the compilations must be identical.
func TestRecycledMeasurePassMatchesFreshCores(t *testing.T) {
	conv := func() *graph.Graph {
		cs := tensor.ConvShape{N: 1, C: 4, H: 8, W: 8, K: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
		g := graph.New("conv")
		x := g.Input("x", 1, 4, 8, 8)
		w := g.Param("w", 8, 4, 3, 3)
		cv := g.Add(&graph.Node{Op: graph.OpConv2D, Inputs: []int{x.ID, w.ID}, Conv: cs, Shape: []int{1, 8, 8, 8}})
		g.Outputs = []int{cv.ID}
		return g
	}
	cases := []struct {
		name  string
		cfg   npu.Config
		graph func() *graph.Graph
	}{
		{"linear-small", small(), testGraph},
		{"conv-small", small(), conv},
		{"linear-tpuv3", npu.TPUv3Config(), func() *graph.Graph { return linearGraph(96, 256, 192, true) }},
	}
	for _, tc := range cases {
		recycled := New(tc.cfg, DefaultOptions())
		recycled.Workers = 2
		fresh := New(tc.cfg, DefaultOptions())
		fresh.Measurer = TimingMeasurer{}
		a, err := recycled.Compile(tc.graph())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := fresh.Compile(tc.graph())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if recycled.MeasureCount() < 3 {
			t.Fatalf("%s: measured %d kernels; too few for a core to be recycled", tc.name, recycled.MeasureCount())
		}
		if !reflect.DeepEqual(recycled.Latencies(), fresh.Latencies()) {
			t.Fatalf("%s: recycled cores measured %v, fresh cores %v", tc.name, recycled.Latencies(), fresh.Latencies())
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: recycled and fresh measure passes compiled differently", tc.name)
		}
	}
}

// TestSeededCacheSkipsMeasurement pre-seeds a compiler's latency cache from
// a finished compile and verifies a fresh compiler does zero measurements
// (and zero measurer calls — the lazy codegen path) on the same model.
func TestSeededCacheSkipsMeasurement(t *testing.T) {
	warm := New(small(), DefaultOptions())
	want, err := warm.Compile(testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if warm.MeasureCount() == 0 {
		t.Fatal("warm compile measured nothing")
	}

	cm := &countingMeasurer{}
	cold := New(small(), DefaultOptions())
	cold.Measurer = cm
	cold.SeedLatencies(warm.Latencies())
	got, err := cold.Compile(testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if cm.calls.Load() != 0 {
		t.Fatalf("seeded compile invoked the measurer %d times", cm.calls.Load())
	}
	if cold.MeasureCount() != 0 {
		t.Fatalf("seeded compile reported MeasureCount=%d", cold.MeasureCount())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("seeded compile produced a different compilation")
	}
}

// TestStatsAreConsistent checks the Stats snapshot after concurrent use:
// lookups >= measures, and cached signatures match the cache length.
func TestStatsAreConsistent(t *testing.T) {
	c := New(small(), DefaultOptions())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Compile(testGraph()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.MeasureCount == 0 || st.CachedSigs == 0 {
		t.Fatalf("empty stats after compiling: %+v", st)
	}
	if st.SigLookups < st.MeasureCount {
		t.Fatalf("fewer signature lookups (%d) than measurements (%d)", st.SigLookups, st.MeasureCount)
	}
	if st.CachedSigs != c.Cache().Len() {
		t.Fatalf("Stats.CachedSigs=%d, cache holds %d", st.CachedSigs, c.Cache().Len())
	}
}

// TestRunParallelReturnsLowestIndexError pins the serial-equivalent error
// contract: whatever the worker count, the reported error is the one the
// serial loop would have hit first.
func TestRunParallelReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		err := runParallel(10, workers, func(i int) error {
			if i >= 4 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 4 failed" {
			t.Fatalf("workers=%d: got %v, want the index-4 error", workers, err)
		}
	}
}

// TestMeasureErrorNotCached: a failing measurement must not poison the
// cache — a later compile with a working measurer succeeds.
func TestMeasureErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	c := New(small(), DefaultOptions())
	c.Measurer = measureFunc(func(npu.CoreConfig, *isa.Program) (int64, error) { return 0, boom })
	if _, err := c.Compile(testGraph()); !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped measurement error", err)
	}
	c.Measurer = nil // back to the real timing measurer
	if _, err := c.Compile(testGraph()); err != nil {
		t.Fatalf("compile after failed measurement: %v", err)
	}
}

type measureFunc func(npu.CoreConfig, *isa.Program) (int64, error)

func (f measureFunc) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) { return f(cfg, p) }
