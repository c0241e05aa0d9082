// Package compiler is the NPU backend (the role of the paper's custom
// Inductor backend + MLIR/LLVM lowering, §3.6): it takes a captured graph,
// applies operator fusion, chooses tilings and activation layouts, generates
// machine-code kernels per unique tile shape, measures their deterministic
// latencies on the core timing model (offline ILS, §3.8), and emits one
// Tile Operation Graph per layer for TOGSim, plus the DRAM tensor map.
//
// Layout convention: 4-D activations are stored in DRAM as (H*W*N, C)
// row-major — the HWNC layout of §3.6.3 — so convolutions, pooling, and
// folded batch-norm all become matrix-shaped tile operations. 2-D tensors
// are plain row-major.
package compiler

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/tog"
	"repro/internal/togsim"
)

// DMAMode selects DMA decomposition (§3.6.3, Fig. 8a).
type DMAMode int

const (
	// DMASelective is fine-grained DMA except for operands whose stripe
	// exceeds FineThresholdBytes (the paper's SFG-DMA).
	DMASelective DMAMode = iota
	// DMACoarse loads whole tile stripes with single DMAs.
	DMACoarse
	// DMAFine decomposes loads to SA-panel granularity (FG-DMA).
	DMAFine
)

func (m DMAMode) String() string {
	switch m {
	case DMACoarse:
		return "coarse"
	case DMAFine:
		return "fine"
	default:
		return "selective"
	}
}

// Options control the compiler's optimizations.
type Options struct {
	Fusion             bool    // fuse bias/BN/activation epilogues into GEMM/CONV
	DMA                DMAMode // DMA decomposition strategy
	ConvLayoutOpt      bool    // HWC / HNWC tilings for batch-1 / small-C convs
	MaxMt              int     // cap on M-tile rows (0 = default 256)
	FineThresholdBytes int     // SFG: stripes above this stay coarse (0 = 2 MiB)
}

// DefaultOptions enables every optimization, as the paper's evaluation does.
func DefaultOptions() Options {
	return Options{Fusion: true, DMA: DMASelective, ConvLayoutOpt: true}
}

// TileCandidates returns the option sets the autotuner sweeps: the default
// heuristic plus capped M-tile variants. Smaller M tiles trade scratchpad
// reuse for finer DMA-compute overlap; which wins depends on the layer's
// aspect ratio and the memory system, which is exactly why the sweep runs
// each candidate through TLS instead of scoring a static model.
func TileCandidates() []Options {
	base := DefaultOptions()
	out := []Options{base}
	for _, mt := range []int{32, 64, 128} {
		o := base
		o.MaxMt = mt
		out = append(out, o)
	}
	return out
}

func (o Options) maxMt() int {
	if o.MaxMt > 0 {
		return o.MaxMt
	}
	return 256
}

func (o Options) fineThreshold() int {
	if o.FineThresholdBytes > 0 {
		return o.FineThresholdBytes
	}
	return 2 << 20
}

// Compiled is the backend's output for one graph: TOGs in execution order,
// the DRAM tensor map, and the kernel programs for functional execution.
type Compiled struct {
	Name    string
	TOGs    []*tog.TOG
	Bases   map[string]uint64 // tensor name -> DRAM base address
	Kernels map[string]*isa.Program
	// TensorBytes records each tensor's allocated footprint.
	TensorBytes map[string]int64
	TotalBytes  uint64
	// LayerOf maps each TOG index back to the graph node it implements.
	LayerOf []int
	// OutputTensors names the tensors holding graph outputs.
	OutputTensors map[int]string
	// FunctionalOK reports whether every TOG can be executed functionally
	// (convolution cost-model TOGs cannot; see DESIGN.md).
	FunctionalOK bool

	cfg npu.Config
}

// Job wraps the compiled model as a TOGSim job on the given core.
func (c *Compiled) Job(name string, core, src int) *togsim.Job {
	bases := make([]map[string]uint64, len(c.TOGs))
	for i := range bases {
		bases[i] = c.Bases
	}
	return &togsim.Job{Name: name, TOGs: c.TOGs, Bases: bases, Core: core, Src: src}
}

// Compiler lowers graphs through the staged pass pipeline (lower, with
// codegen and measurement streaming alongside it, then emit) and caches
// kernel latencies across compilations (the paper's TOG cache, §3.10:
// latencies measured offline are reused over simulations). A Compiler is
// safe for concurrent Compile calls: per-call state lives in the pass
// pipeline's state value, the latency cache is thread-safe with
// per-signature singleflight, and the counters are atomic.
type Compiler struct {
	Cfg  npu.Config
	Opts Options

	// Workers is the number of codegen/measure goroutines each Compile
	// runs beside lowering (0 = GOMAXPROCS). The output is bit-identical
	// for every worker count — parallelism only changes wall-clock time.
	Workers int
	// Measurer times kernels on the core model; nil selects
	// TimingMeasurer (the real timing simulator). Tests substitute fakes.
	Measurer Measurer
	// Probe, when non-nil, receives per-pass host-time spans on
	// obs.CompileTrack (microseconds since the Compile call began).
	Probe obs.Probe
	// PhaseHook, when non-nil, is called after each pass with its host
	// duration — the service uses it to feed compile-phase histograms.
	PhaseHook func(Phase, time.Duration)

	lat      *LatencyCache
	measured atomic.Int64 // timing-simulator invocations by this compiler
	lookups  atomic.Int64 // signature resolutions requested (incl. hits)
}

// New returns a compiler for the target NPU with a private latency cache.
func New(cfg npu.Config, opts Options) *Compiler {
	return NewShared(cfg, opts, nil)
}

// NewShared returns a compiler backed by an existing latency cache, so
// several compilers (autotune candidates, a service's per-core pool) share
// measurements. All sharers must target the same npu.CoreConfig.
func NewShared(cfg npu.Config, opts Options, lc *LatencyCache) *Compiler {
	if lc == nil {
		lc = NewLatencyCache(cfg.Core)
	}
	return &Compiler{Cfg: cfg, Opts: opts, lat: lc}
}

// Cache exposes the compiler's latency cache for sharing via NewShared.
func (c *Compiler) Cache() *LatencyCache { return c.lat }

// MeasureCount reports actual timing-simulator invocations by this compiler
// (cache misses it resolved itself), exposed for tests and reporting.
func (c *Compiler) MeasureCount() int64 { return c.measured.Load() }

// Stats is a concurrency-safe snapshot of the compiler's measurement work.
type Stats struct {
	// MeasureCount is the number of timing-simulator invocations performed
	// by this compiler (signatures it resolved itself).
	MeasureCount int64
	// SigLookups is the number of signature resolutions requested,
	// including cache hits and waits on another compiler's measurement.
	SigLookups int64
	// CachedSigs is the number of signatures resident in the (possibly
	// shared) latency cache.
	CachedSigs int
}

// Stats returns a consistent snapshot of the measurement counters.
func (c *Compiler) Stats() Stats {
	return Stats{
		MeasureCount: c.measured.Load(),
		SigLookups:   c.lookups.Load(),
		CachedSigs:   c.lat.Len(),
	}
}

// Latencies returns a copy of the kernel-latency cache — the tile-latency
// table measured (or read from an attached store) so far.
func (c *Compiler) Latencies() map[string]int64 {
	return c.lat.Snapshot()
}

// state carries per-compilation context. One state lives for one Compile
// call: the lower pass fills the pending TOGs and the kernel/measure work
// lists and hands each new request to the worker pool, the workers fill in
// the requests, and the emit pass assembles the output — so concurrent
// Compile calls on one Compiler never share mutable per-call state.
type state struct {
	c    *Compiler
	g    *graph.Graph
	out  *Compiled
	next uint64 // bump allocator cursor

	// tensorOf maps node ID to the name of the tensor holding its value
	// (fused nodes map to their group's output tensor).
	tensorOf map[int]string
	// fusion results.
	fusedInto map[int]int      // member node -> group root
	groupEpi  map[int]groupEpi // root -> epilogue info

	// pending holds lowered TOG builders awaiting latency patching, in
	// graph order; curPatches accumulates the patches of the TOG being
	// lowered right now (moved into pending by addTOG).
	pending    []pendingTOG
	curPatches []latPatch
	// kernelReqs is the deduplicated codegen work list (one entry per
	// kernel id) and jobErrs holds one error per pool job, codegen and
	// measurement alike, both in first-occurrence (lowering) order so that
	// the kernel map and error selection are deterministic. Lowering only
	// appends to them; each entry is filled in by the worker that runs its
	// job.
	kernelReqs  []*kernelReq
	seenKernel  map[string]bool
	jobErrs     []*error
	seenMeasure map[string]bool
	gemmKeys    map[codegen.GEMMSpec]gemmKey

	work *pool
	m    Measurer
}

type groupEpi struct {
	epi       codegen.Epilogue
	biasNode  int // bias_add's bias input node (-1 if none)
	gammaNode int // scale_shift gamma (-1 if none)
	betaNode  int
	outNode   int // last node of the group (its consumers read the tensor)
}

const allocAlign = 4096

// alloc reserves DRAM space for a named tensor.
func (st *state) alloc(name string, bytes int64) {
	if _, dup := st.out.Bases[name]; dup {
		panic(fmt.Sprintf("compiler: tensor %q allocated twice", name))
	}
	st.out.Bases[name] = st.next
	st.out.TensorBytes[name] = bytes
	st.next += (uint64(bytes) + allocAlign - 1) &^ (allocAlign - 1)
}

// tensorName returns the canonical tensor name for a node's value.
func tensorName(n *graph.Node) string {
	switch n.Op {
	case graph.OpInput, graph.OpParam, graph.OpConst:
		return n.Name
	default:
		return fmt.Sprintf("t%d", n.ID)
	}
}

// spadBudget is the scratchpad bytes available to one context (two
// double-buffered contexts share the core's scratchpad, §3.3.1).
func (st *state) spadBudget() int64 {
	return int64(st.c.Cfg.Core.SpadBytes) / 2
}

// Compile lowers g for the target NPU. Lowering hands each kernel id and
// signature it meets for the first time to Workers goroutines, which
// generate programs and measure latencies while lowering goes on; after
// lowering, Compile waits for them and emits. The result is bit-identical
// regardless of Workers and of what the latency cache already contains:
// lowering fixes the TOG structure and the work lists, workers only fill in
// their own requests, and the emit pass assembles everything in graph
// order. A lowering error wins over any measurement error; among those, the
// first in signature first-occurrence order is returned.
func (c *Compiler) Compile(g *graph.Graph) (*Compiled, error) {
	if err := c.Cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if err := c.Cfg.Energy.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	st := &state{
		c: c,
		g: g,
		out: &Compiled{
			Name:          g.Name,
			Bases:         map[string]uint64{},
			Kernels:       map[string]*isa.Program{},
			TensorBytes:   map[string]int64{},
			OutputTensors: map[int]string{},
			FunctionalOK:  true,
			cfg:           c.Cfg,
		},
		tensorOf:    map[int]string{},
		fusedInto:   map[int]int{},
		groupEpi:    map[int]groupEpi{},
		seenKernel:  map[string]bool{},
		seenMeasure: map[string]bool{},
		gemmKeys:    map[codegen.GEMMSpec]gemmKey{},
		work:        startPool(c.workers()),
		m:           c.Measurer,
	}
	if st.m == nil {
		st.m = TimingMeasurer{}
	}
	t0 := time.Now()
	err := c.phase(t0, PhaseLower, func() error {
		defer st.work.close() // even if lowering panics, the workers exit
		return c.lowerPass(st)
	})
	if err != nil {
		st.work.workers.Wait()
		return nil, err
	}
	c.phase(t0, PhaseCodegen, func() error { st.work.codegen.Wait(); return nil })
	if err := c.phase(t0, PhaseMeasure, func() error { st.work.workers.Wait(); return st.jobErr() }); err != nil {
		return nil, err
	}
	if err := c.phase(t0, PhaseEmit, func() error { return c.emitPass(st) }); err != nil {
		return nil, err
	}
	return st.out, nil
}

// lowerPass walks the graph: fusion analysis, tensor allocation, and TOG
// structure building. It records every kernel/measure request but invokes
// neither codegen nor the timing simulator.
func (c *Compiler) lowerPass(st *state) error {
	g := st.g
	st.analyzeFusion()

	// Allocate all leaf tensors up front — fused epilogues may reference
	// parameters declared after their group root in graph order.
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpInput, graph.OpParam, graph.OpConst:
			name := tensorName(n)
			st.tensorOf[n.ID] = name
			st.alloc(name, st.storageBytes(n))
		}
	}
	// Lower compute nodes.
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpInput, graph.OpParam, graph.OpConst:
			continue
		}
		if err := st.lowerNode(n); err != nil {
			return fmt.Errorf("compiler: node %d (%s %q): %w", n.ID, n.Op, n.Name, err)
		}
	}
	for _, o := range g.Outputs {
		st.out.OutputTensors[o] = st.tensorOf[o]
	}
	st.out.TotalBytes = st.next
	return nil
}

// analyzeFusion groups GEMM/CONV roots with single-consumer epilogue chains
// (bias_add, scale_shift, relu, gelu) — the fusions of §3.6.3/§3.6.4.
func (st *state) analyzeFusion() {
	if !st.c.Opts.Fusion {
		return
	}
	g := st.g
	consumers := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			consumers[in] = append(consumers[in], n.ID)
		}
	}
	outputSet := map[int]bool{}
	for _, o := range g.Outputs {
		outputSet[o] = true
	}
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpMatMul, graph.OpMatMulTA, graph.OpMatMulTB, graph.OpConv2D:
		default:
			continue
		}
		ge := groupEpi{biasNode: -1, gammaNode: -1, betaNode: -1, outNode: n.ID}
		cur := n.ID
		for {
			if outputSet[cur] || len(consumers[cur]) != 1 {
				break
			}
			next := g.Nodes[consumers[cur][0]]
			if next.Inputs[0] != cur {
				break
			}
			switch next.Op {
			case graph.OpBiasAdd:
				if ge.epi.Bias || ge.epi.ReLU || ge.epi.GELU {
					goto done
				}
				ge.epi.Bias = true
				ge.biasNode = next.Inputs[1]
			case graph.OpScaleShift:
				if n.Op != graph.OpConv2D || ge.epi.ScaleShift || ge.epi.ReLU {
					goto done
				}
				ge.epi.ScaleShift = true
				ge.gammaNode = next.Inputs[1]
				ge.betaNode = next.Inputs[2]
			case graph.OpReLU:
				if ge.epi.ReLU || ge.epi.GELU {
					goto done
				}
				ge.epi.ReLU = true
			case graph.OpGELU:
				if ge.epi.ReLU || ge.epi.GELU {
					goto done
				}
				ge.epi.GELU = true
			default:
				goto done
			}
			ge.outNode = next.ID
			st.fusedInto[next.ID] = n.ID
			cur = next.ID
		}
	done:
		if ge.outNode != n.ID {
			st.groupEpi[n.ID] = ge
		}
	}
}

// lowerNode dispatches one graph node.
func (st *state) lowerNode(n *graph.Node) error {
	// Fused members were handled with their root.
	if root, fused := st.fusedInto[n.ID]; fused {
		st.tensorOf[n.ID] = st.tensorOf[root]
		return nil
	}
	switch n.Op {
	case graph.OpReshape:
		// A view: alias the input tensor.
		st.tensorOf[n.ID] = st.tensorOf[n.Inputs[0]]
		return nil
	case graph.OpMatMul:
		return st.lowerMatMul(n, false, false)
	case graph.OpMatMulTA:
		return st.lowerMatMul(n, true, false)
	case graph.OpMatMulTB:
		return st.lowerMatMul(n, false, true)
	case graph.OpConv2D:
		return st.lowerConv(n)
	case graph.OpAdd:
		return st.lowerEltwiseBinary(n, codegen.EltAdd)
	case graph.OpMul:
		return st.lowerEltwiseBinary(n, codegen.EltMul)
	case graph.OpReLUGrad:
		return st.lowerEltwiseBinary(n, codegen.EltReLUGrad)
	case graph.OpReLU:
		return st.lowerEltwiseUnary(n, codegen.EltReLU, 0)
	case graph.OpGELU:
		return st.lowerEltwiseUnary(n, codegen.EltGELU, 0)
	case graph.OpTanh:
		return st.lowerEltwiseUnary(n, codegen.EltTanh, 0)
	case graph.OpScale:
		return st.lowerEltwiseUnary(n, codegen.EltScale, n.ScaleF)
	case graph.OpBiasAdd:
		return st.lowerBiasAdd(n)
	case graph.OpScaleShift:
		return st.lowerScaleShift(n)
	case graph.OpSoftmax:
		return st.lowerSoftmax(n)
	case graph.OpLayerNorm:
		return st.lowerLayerNorm(n)
	case graph.OpRMSNorm:
		return st.lowerRMSNorm(n)
	case graph.OpColSum:
		return st.lowerColSum(n)
	case graph.OpSGDUpdate:
		return st.lowerSGD(n)
	case graph.OpAXPBY:
		return st.lowerAXPBY(n)
	case graph.OpAdamStep:
		return st.lowerAdam(n)
	case graph.OpSoftmaxCE:
		return st.lowerSoftmaxCE(n, false)
	case graph.OpSoftmaxCEGrad:
		return st.lowerSoftmaxCE(n, true)
	case graph.OpMaxPool:
		return st.lowerMaxPool(n)
	case graph.OpAvgPool:
		return st.lowerAvgPool(n)
	case graph.OpTranspose:
		return st.lowerTranspose(n)
	case graph.OpAllReduce, graph.OpAllGather, graph.OpReduceScatter:
		return st.lowerCollective(n)
	case graph.OpSparseMM:
		return fmt.Errorf("sparse_mm lowers through the sparse-core backend (internal/sparsecore), not the dense compiler")
	default:
		return fmt.Errorf("unsupported op %q", n.Op)
	}
}

// storageBytes returns a node's tensor footprint. 4-D activations and
// filters are stored flattened per the layout convention.
func (st *state) storageBytes(n *graph.Node) int64 {
	elems := int64(1)
	for _, d := range n.Shape {
		elems *= int64(d)
	}
	return elems * 4
}

// allocOut allocates the output tensor of a (possibly fused) layer rooted at
// n and returns its name plus the fusion epilogue info.
func (st *state) allocOut(n *graph.Node) (string, groupEpi) {
	ge, fused := st.groupEpi[n.ID]
	if !fused {
		ge = groupEpi{biasNode: -1, gammaNode: -1, betaNode: -1, outNode: n.ID}
	}
	name := tensorName(st.g.Nodes[ge.outNode])
	st.tensorOf[n.ID] = name
	st.alloc(name, st.storageBytes(st.g.Nodes[ge.outNode]))
	return name, ge
}

// computeKernel emits a compute node with a zero-cycle placeholder, hands
// the work it depends on to the worker pool — program generation for a new
// kernel id, latency resolution for a new signature — and records a latency
// patch the emit pass applies once measured.
func (st *state) computeKernel(b *tog.Builder, unit tog.Unit, sig, id string, gen func() *isa.Program) {
	if !st.seenKernel[id] {
		st.seenKernel[id] = true
		req := &kernelReq{id: id}
		st.kernelReqs = append(st.kernelReqs, req)
		err := new(error)
		st.jobErrs = append(st.jobErrs, err)
		st.work.codegen.Add(1)
		st.work.add(func() {
			defer st.work.codegen.Done()
			defer recoverTo(err, "generating", id)
			req.prog = gen()
		})
	}
	if !st.seenMeasure[sig] {
		st.seenMeasure[sig] = true
		err := new(error)
		st.jobErrs = append(st.jobErrs, err)
		st.work.add(func() { *err = st.c.resolve(st.m, sig, gen) })
	}
	b.ComputeKernel(unit, 0, id)
	st.curPatches = append(st.curPatches, latPatch{node: b.LastNodeID(), sig: sig})
}

// addTOG records a lowered TOG (with its accumulated latency patches) for
// the emit pass, which patches, validates, and appends it in graph order.
func (st *state) addTOG(b *tog.Builder, node int) error {
	st.pending = append(st.pending, pendingTOG{b: b, node: node, patches: st.curPatches})
	st.curPatches = nil
	return nil
}

// idx is a loop-position reference: either a symbolic loop variable or a
// constant iteration index.
type idx struct {
	v string
	c int64
}

// addr contributes coeff*position to an address expression.
func (p idx) addr(coeff int64) tog.AddrExpr {
	if p.v == "" {
		return tog.AddrExpr{Const: p.c * coeff}
	}
	return tog.AddrExpr{Terms: []tog.AddrTerm{{Var: p.v, Coeff: coeff}}}
}

// addExpr sums address expressions.
func addExpr(es ...tog.AddrExpr) tog.AddrExpr {
	var out tog.AddrExpr
	for _, e := range es {
		out.Const += e.Const
		out.Terms = append(out.Terms, e.Terms...)
	}
	return out
}
