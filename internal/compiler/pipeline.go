package compiler

import (
	"fmt"
	"runtime"
	"sync"
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
	// The work it finds runs on the worker pool meanwhile, so this is the
	// lowering wall time with codegen and measurement overlapping it.
	PhaseLower Phase = "lower"
	// PhaseCodegen is the wait, after lowering, for the machine-code
	// kernels (isa.Program) of every unique kernel id to be generated.
	PhaseCodegen Phase = "codegen"
	// PhaseMeasure is the wait, after PhaseCodegen, for every unique kernel
	// signature to be resolved to a cycle count through the latency cache
	// and the Measurer.
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
// pipeline over the functional simulator, on a fresh core per kernel.
type TimingMeasurer struct{}

// Measure implements Measurer.
func (TimingMeasurer) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
	res, err := timingsim.MeasureKernel(cfg, p, nil)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// kernelReq is one unique kernel id whose program a worker generates for
// the Compiled.Kernels map (functional execution).
type kernelReq struct {
	id   string
	prog *isa.Program
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

// pool runs the work lowering finds, program generation for each new kernel
// id and latency resolution for each new signature, on a fixed set of
// workers while lowering goes on. add never blocks: lowering is the
// critical path, so it must not wait for a busy worker. Each job writes
// only its own request, so the results do not depend on which worker ran
// what, or when.
type pool struct {
	mu     sync.Mutex
	ready  sync.Cond
	queue  []func()
	closed bool

	codegen sync.WaitGroup // program generations not yet finished
	workers sync.WaitGroup // workers not yet exited
}

func startPool(n int) *pool {
	p := &pool{}
	p.ready.L = &p.mu
	p.workers.Add(n)
	for i := 0; i < n; i++ {
		go p.work()
	}
	return p
}

func (p *pool) add(job func()) {
	p.mu.Lock()
	p.queue = append(p.queue, job)
	p.mu.Unlock()
	p.ready.Signal()
}

// close tells the workers that no more work comes: each exits once the
// queue is empty, so p.workers.Wait returns when every job has run.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ready.Broadcast()
}

func (p *pool) work() {
	defer p.workers.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.ready.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		job()
	}
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

// resolve looks one signature up in the shared latency cache and measures
// it on a miss. Signatures already cached cost a map lookup; a miss is
// singleflighted per signature, so concurrent Compile calls — even on
// different Compilers sharing the cache — never duplicate a measurement,
// and it tries the attached store before measuring. The representative
// program comes from the signature's first occurrence and gen runs only
// when the winner measures, so cache and store hits (warm restarts,
// autotune candidates) skip codegen for it entirely. Latencies
// depend only on the signature (never on scratchpad offsets), which is the
// invariant the latency cache has always relied on.
func (c *Compiler) resolve(m Measurer, sig string, gen func() *isa.Program) error {
	c.lookups.Add(1)
	_, measured, err := c.lat.resolve(sig, func() (lat int64, err error) {
		defer recoverTo(&err, "measuring", sig)
		if lat, err = m.Measure(c.Cfg.Core, gen()); err != nil {
			err = fmt.Errorf("compiler: measuring %q: %w", sig, err)
		}
		return lat, err
	})
	if err != nil {
		return err
	}
	if measured {
		c.measured.Add(1)
	}
	return nil
}

// recoverTo turns a panic in the pool job that defers it into *err: the
// pool's goroutines are outside every caller's recover, so an escaped
// codegen or measurement panic would end the process.
func recoverTo(err *error, doing, kernel string) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("compiler: %s %q: panic: %v", doing, kernel, p)
	}
}

// jobErr returns the first failed pool job in first-occurrence order —
// the one a serial compile would have hit first — so the reported error
// does not depend on the worker count.
func (st *state) jobErr() error {
	for _, err := range st.jobErrs {
		if *err != nil {
			return *err
		}
	}
	return nil
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
