package compiler

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/timingsim"
	"repro/internal/tog"
)

// Phase names one compiler pass; PhaseHook and the obs compile spans report
// per-phase host latency under these names.
type Phase string

const (
	// PhaseLower walks the graph: fusion analysis, tensor allocation, tile
	// planning, and TOG structure building (latencies still unresolved).
	PhaseLower Phase = "lower"
	// PhaseCodegen generates the machine-code kernels (isa.Program) for
	// every unique kernel id and measurement signature, in parallel.
	PhaseCodegen Phase = "codegen"
	// PhaseMeasure resolves unique kernel signatures to cycle counts via
	// the Measurer, in parallel with per-signature singleflight.
	PhaseMeasure Phase = "measure"
	// PhaseEmit patches measured latencies into the TOGs in graph order and
	// assembles the final Compiled — deterministic regardless of worker
	// count or measurement completion order.
	PhaseEmit Phase = "emit"
)

// Phases lists the passes in execution order.
func Phases() []Phase { return []Phase{PhaseLower, PhaseCodegen, PhaseMeasure, PhaseEmit} }

// Measurer times one kernel on a core model. The default implementation
// wraps timingsim.MeasureKernel (the offline ILS pass of §3.8); tests
// substitute counters or canned tables.
type Measurer interface {
	Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error)
}

// TimingMeasurer is the production Measurer: the deterministic core timing
// pipeline over the functional simulator.
type TimingMeasurer struct {
	// Meter, when non-nil, recycles the measuring cores across calls; the
	// zero value measures every kernel on a fresh core. Either way the
	// cycle counts are the same.
	Meter *timingsim.Meter
}

// Measure implements Measurer.
func (t TimingMeasurer) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
	var res timingsim.Result
	var err error
	if t.Meter != nil {
		res, err = t.Meter.Measure(cfg, p, nil)
	} else {
		res, err = timingsim.MeasureKernel(cfg, p, nil)
	}
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// kernelReq is one unique kernel id whose program the codegen pass must
// generate for the Compiled.Kernels map (functional execution).
type kernelReq struct {
	id   string
	gen  func() *isa.Program
	prog *isa.Program
}

// measureReq is one unique kernel signature the measure pass must resolve.
// The representative program comes from the signature's first occurrence and
// is generated lazily, inside the singleflight winner, so cache hits (warm
// restarts, autotune candidates) skip codegen for it entirely. Latencies
// depend only on the signature (never on scratchpad offsets), which is the
// invariant the latency cache has always relied on.
type measureReq struct {
	sig string
	gen func() *isa.Program
}

// latPatch marks one TOG compute node awaiting its measured latency.
type latPatch struct {
	node int // node id inside the pending builder
	sig  string
}

// pendingTOG is a lowered-but-unresolved TOG: structure complete, compute
// latencies to be patched in the emit pass.
type pendingTOG struct {
	b       *tog.Builder
	node    int // graph node this TOG implements
	patches []latPatch
}

// workers resolves the configured fan-out width.
func (c *Compiler) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runParallel runs f(0..n-1) on up to workers goroutines. The returned
// error is the lowest-index failure — the same one a serial loop would have
// returned first — so error behavior stays deterministic under parallelism.
func runParallel(n, workers int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// phase wraps one pass with host-time accounting: PhaseHook gets the
// duration, and the obs probe (when attached) gets a span on the compile
// track in microseconds relative to t0.
func (c *Compiler) phase(t0 time.Time, name Phase, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	if c.PhaseHook != nil {
		c.PhaseHook(name, end.Sub(start))
	}
	if c.Probe != nil {
		c.Probe.Span(obs.CompileTrack, string(name),
			start.Sub(t0).Microseconds(), end.Sub(t0).Microseconds(), obs.SpanInfo{})
	}
	return err
}

// codegenPass generates the program for every unique kernel id (the
// functional-execution kernels of Compiled.Kernels). Program generation is
// pure, so the fan-out needs no coordination beyond slice slots.
func (c *Compiler) codegenPass(st *state) error {
	return runParallel(len(st.kernelReqs), c.workers(), func(i int) error {
		st.kernelReqs[i].prog = st.kernelReqs[i].gen()
		return nil
	})
}

// measurePass resolves every unique signature through the shared latency
// cache. Signatures already cached (same-process reuse or a persisted table
// seeded from disk) cost a map lookup; the rest fan out across the worker
// pool, singleflighted per signature so concurrent Compile calls — even on
// different Compilers sharing the cache — never duplicate a measurement.
// The default measurer recycles its measuring cores within this one pass
// (one per worker), and lets them go with the pass.
func (c *Compiler) measurePass(st *state) error {
	m := c.Measurer
	if m == nil {
		m = TimingMeasurer{Meter: &timingsim.Meter{}}
	}
	return runParallel(len(st.measureReqs), c.workers(), func(i int) error {
		req := st.measureReqs[i]
		c.lookups.Add(1)
		_, measured, err := c.lat.resolve(req.sig, func() (int64, error) {
			return m.Measure(c.Cfg.Core, req.gen())
		})
		if err != nil {
			return fmt.Errorf("compiler: measuring %q: %w", req.sig, err)
		}
		if measured {
			c.measured.Add(1)
		}
		return nil
	})
}

// emitPass patches resolved latencies into the pending TOGs and builds them
// in graph order, then fills the kernel map — the only pass that writes the
// Compiled, so its output is identical however the fan-out interleaved.
func (c *Compiler) emitPass(st *state) error {
	for _, p := range st.pending {
		for _, patch := range p.patches {
			lat, ok := c.lat.Get(patch.sig)
			if !ok {
				return fmt.Errorf("compiler: internal: signature %q unresolved at emit", patch.sig)
			}
			if err := p.b.PatchComputeCycles(patch.node, lat); err != nil {
				return fmt.Errorf("compiler: internal: %w", err)
			}
		}
		g, err := p.b.Build()
		if err != nil {
			n := st.g.Nodes[p.node]
			return fmt.Errorf("compiler: node %d (%s %q): %w", n.ID, n.Op, n.Name, err)
		}
		st.out.TOGs = append(st.out.TOGs, g)
		st.out.LayerOf = append(st.out.LayerOf, p.node)
	}
	for _, req := range st.kernelReqs {
		st.out.Kernels[req.id] = req.prog
	}
	return nil
}
