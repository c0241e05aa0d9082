// Tests for the staged pass pipeline's concurrency contract: Compile must
// be safe to call from many goroutines on one Compiler (run with -race),
// worker-count must never change the output, and measurement must
// singleflight shared kernel signatures.
package compiler

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/service/cache"
	"repro/internal/tog"
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
// and shared signatures must be measured, and looked up in the store,
// exactly once across all calls.
func TestConcurrentCompileSameCompiler(t *testing.T) {
	cm := &countingMeasurer{}
	st := cache.NewMemory()
	c := New(small(), DefaultOptions())
	c.Measurer = cm
	c.Cache().SetStore(st)

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
	if hits, misses := st.Stats(); hits != 0 || misses != int64(c.Cache().Len()) {
		t.Fatalf("store saw %d hits, %d misses for %d unique signatures; want 0 and one each",
			hits, misses, c.Cache().Len())
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

// TestSeededCacheSkipsMeasurement fills a store from a finished compile and
// verifies a fresh compiler over the same store does zero measurements (and
// zero measurer calls — the lazy codegen path) on the same model.
func TestSeededCacheSkipsMeasurement(t *testing.T) {
	st := cache.NewMemory()
	warm := New(small(), DefaultOptions())
	warm.Cache().SetStore(st)
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
	cold.Cache().SetStore(st)
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

// chainGraph is a stack of matmul+relu layers through the given widths:
// every layer brings new kernel signatures, in graph order.
func chainGraph(rows int, widths ...int) *graph.Graph {
	g := graph.New("chain")
	x := g.Input("x", rows, widths[0])
	for i := 1; i < len(widths); i++ {
		w := g.Param(fmt.Sprintf("w%d", i), widths[i-1], widths[i])
		mm := g.Add(&graph.Node{Op: graph.OpMatMul, Name: fmt.Sprintf("mm%d", i), Inputs: []int{x.ID, w.ID}, Shape: []int{rows, widths[i]}})
		x = g.Add(&graph.Node{Op: graph.OpReLU, Name: fmt.Sprintf("relu%d", i), Inputs: []int{mm.ID}, Shape: []int{rows, widths[i]}})
	}
	g.Outputs = []int{x.ID}
	return g
}

// signatureOrder lists a compilation's kernel signatures in first-occurrence
// order: the compute nodes in graph order, each named by its program (a
// codegen program is named by its spec's signature).
func signatureOrder(comp *Compiled) []string {
	var sigs []string
	seen := map[string]bool{}
	for _, g := range comp.TOGs {
		for _, n := range g.Nodes {
			if n.Kernel == "" {
				continue
			}
			if sig := comp.Kernels[n.Kernel].Name; !seen[sig] {
				seen[sig] = true
				sigs = append(sigs, sig)
			}
		}
	}
	return sigs
}

// TestMeasureErrorPrecedence pins which error Compile reports when work
// fails: the first failing signature in first-occurrence order — the one a
// serial compile would hit first — whatever the worker count and whichever
// failure happens first in time.
func TestMeasureErrorPrecedence(t *testing.T) {
	g := chainGraph(24, 16, 40, 24, 48, 8)
	ref := New(small(), DefaultOptions())
	ref.Workers = 1
	comp, err := ref.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	sigs := signatureOrder(comp)
	if len(sigs) < 6 || len(sigs) != ref.Cache().Len() {
		t.Fatalf("found %d signatures in the TOGs, cache holds %d; need at least 6", len(sigs), ref.Cache().Len())
	}
	err3, err5 := errors.New("signature #3 failed"), errors.New("signature #5 failed")
	for _, workers := range []int{1, 3, 8} {
		c := New(small(), DefaultOptions())
		c.Workers = workers
		c.Measurer = measureFunc(func(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
			switch p.Name {
			case sigs[3]:
				time.Sleep(20 * time.Millisecond) // let #5 fail first in time
				return 0, err3
			case sigs[5]:
				return 0, err5
			}
			return TimingMeasurer{}.Measure(cfg, p)
		})
		if _, err := c.Compile(g); !errors.Is(err, err3) {
			t.Fatalf("workers=%d: got %v, want the error of signature #3", workers, err)
		}
	}
}

// TestLoweringErrorWins: when lowering fails after it has already handed
// signatures to the workers, and those fail too, Compile reports the
// lowering error.
func TestLoweringErrorWins(t *testing.T) {
	g := chainGraph(24, 16, 40, 24)
	a := g.Input("sa", 8, 8)
	b := g.Input("sb", 8, 8)
	sp := g.Add(&graph.Node{Op: graph.OpSparseMM, Name: "sparse", Inputs: []int{a.ID, b.ID}, Shape: []int{8, 8}})
	g.Outputs = append(g.Outputs, sp.ID)
	boom := errors.New("boom")
	for _, workers := range []int{1, 3, 8} {
		var calls atomic.Int64
		c := New(small(), DefaultOptions())
		c.Workers = workers
		c.Measurer = measureFunc(func(npu.CoreConfig, *isa.Program) (int64, error) {
			calls.Add(1)
			return 0, boom
		})
		_, err := c.Compile(g)
		if err == nil || errors.Is(err, boom) || !strings.Contains(err.Error(), "sparse_mm") {
			t.Fatalf("workers=%d: got %v, want the sparse_mm lowering error", workers, err)
		}
		if calls.Load() == 0 {
			t.Fatalf("workers=%d: no signature reached the measurer before lowering failed", workers)
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

// TestMeasurePanicIsAnError: a measurer that panics on one signature fails
// the compile with an error naming that signature and the panic, instead
// of ending the process from a pool goroutine. Nothing is cached for the
// signature, so a later compile on the same shared latency cache measures
// it.
func TestMeasurePanicIsAnError(t *testing.T) {
	g := chainGraph(24, 16, 40, 24)
	comp, err := New(small(), DefaultOptions()).Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := signatureOrder(comp)[1]
	lc := NewLatencyCache(small().Core)
	c := NewShared(small(), DefaultOptions(), lc)
	c.Measurer = measureFunc(func(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
		if p.Name == bad {
			panic("injected measurer fault")
		}
		return TimingMeasurer{}.Measure(cfg, p)
	})
	_, err = c.Compile(g)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) || !strings.Contains(err.Error(), "injected measurer fault") {
		t.Fatalf("got %v, want an error naming signature %q and the panic", err, bad)
	}
	if _, ok := lc.Get(bad); ok {
		t.Fatalf("signature %q was cached after its measurement panicked", bad)
	}
	cm := &countingMeasurer{}
	again := NewShared(small(), DefaultOptions(), lc)
	again.Measurer = cm
	if _, err := again.Compile(g); err != nil {
		t.Fatalf("compile after the panic: %v", err)
	}
	if _, ok := lc.Get(bad); !ok || cm.calls.Load() != 1 {
		t.Fatalf("the later compile made %d measurements (cached: %v), want the one of %q", cm.calls.Load(), ok, bad)
	}
}

// TestCodegenPanicIsAnError: a kernel generator that panics in a pool job
// becomes the compile's first error, naming the kernel and the panic,
// instead of ending the process.
func TestCodegenPanicIsAnError(t *testing.T) {
	c := New(small(), DefaultOptions())
	st := &state{c: c, m: TimingMeasurer{}, seenKernel: map[string]bool{}, seenMeasure: map[string]bool{}, work: startPool(2)}
	st.computeKernel(tog.NewBuilder("t"), tog.UnitVector, "sig0", "kern0", func() *isa.Program { panic("injected codegen fault") })
	st.work.close()
	st.work.workers.Wait()
	if err := st.jobErr(); err == nil || !strings.Contains(err.Error(), `generating "kern0"`) || !strings.Contains(err.Error(), "injected codegen fault") {
		t.Fatalf("got %v, want the codegen panic of kernel kern0", err)
	}
}

type measureFunc func(npu.CoreConfig, *isa.Program) (int64, error)

func (f measureFunc) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) { return f(cfg, p) }
