// Package service is the simulation-as-a-service subsystem: a bounded job
// queue feeding a pool of workers that each run an independent
// togsim.Engine, behind a result cache (resolved spec → JobResult, so each
// distinct job is simulated once) and a content-addressed compile cache
// (CompileKey → compiled TOGs + tile-latency table). TLS is fast precisely
// so that many simulations become cheap (§3.8, §3.10); this package turns
// that into throughput — a long-running daemon (cmd/ptsimd) amortizes
// compilation across requests and saturates cores with concurrent runs.
//
// Engines share no mutable state: each job gets its own fabric, memory and
// NoC via core.NewStack, and the cached *compiler.Compiled artifacts
// (TOGs, base maps, latency tables) are read-only during simulation, so
// any number of jobs over the same compilation run race-free in parallel.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/obs/report"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/service/cache"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// OverloadError is the typed admission-control failure: the queue was full
// at submission time. Submissions never block and never panic — callers
// (e.g. the HTTP layer, which maps it to 429) get this immediately.
type OverloadError struct {
	Capacity int // configured queue depth
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded, job queue full (capacity %d)", e.Capacity)
}

// TenantOverloadError is the per-tenant admission-control failure: the
// whole queue still has room, but this tenant's share is full. The HTTP
// layer maps it to 429 too, with the tenant named so a client can tell "I
// am being throttled" apart from "the service is saturated".
type TenantOverloadError struct {
	Tenant   string
	Capacity int // configured per-tenant queue depth
}

func (e *TenantOverloadError) Error() string {
	return fmt.Sprintf("service: tenant %q overloaded, per-tenant queue full (capacity %d)", e.Tenant, e.Capacity)
}

// JobSpec is a simulation request as submitted by a client (JSON over the
// daemon API, or directly in-process). Zero values mean defaults.
type JobSpec struct {
	Model string `json:"model"`
	// Tenant names the submitter for fair queueing and per-tenant limits
	// ("" is the anonymous default tenant). Priority orders jobs within a
	// tenant's queue (higher runs earlier); it never lets one tenant jump
	// another's share.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	N        int    `json:"n,omitempty"`   // GEMM dimension
	Seq      int    `json:"seq,omitempty"` // BERT sequence length
	// Ctx/Prefill shape the decoder models: context length and whether to
	// run the prompt prefill pass instead of a single decode step.
	Ctx     int  `json:"ctx,omitempty"`
	Prefill bool `json:"prefill,omitempty"`
	// Topology/Parallel spread the job across a multi-package mesh:
	// topology preset name ("single" default, "pkg2", "meshXxY") and
	// cross-package strategy ("none" default, "data", "tensor"). Both enter
	// the compile-cache key via the canonical spec.
	Topology string `json:"topology,omitempty"`
	Parallel string `json:"parallel,omitempty"`
	NPU      string `json:"npu,omitempty"`    // "tpuv3" (default) or "small"
	Net      string `json:"net,omitempty"`    // "sn" (default) or "cn"
	DMA      string `json:"dma,omitempty"`    // "selective" (default), "coarse", "fine"
	MaxMt    int    `json:"max_mt,omitempty"` // cap on M-tile rows (0 = compiler default)
	// Fusion/ConvOpt are tri-state so that absent JSON fields keep the
	// paper's defaults (both enabled).
	Fusion  *bool `json:"fusion,omitempty"`
	ConvOpt *bool `json:"convopt,omitempty"`
	// MaxCycles overrides the engine's deadlock guard for this job
	// (0 = the service default, which itself defaults to
	// togsim.DefaultMaxCycles).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Serve turns the job into an LLM serving run: instead of simulating
	// the model once, the worker replays a seeded arrival trace through the
	// continuous-batching scheduler (decoder models only).
	Serve *ServeSpec `json:"serve,omitempty"`
}

// ServeSpec parameterizes a serving job's synthetic workload. Zero values
// mean defaults.
type ServeSpec struct {
	Requests   int     `json:"requests,omitempty"`     // trace length (default 4)
	RatePerSec float64 `json:"rate_per_sec,omitempty"` // Poisson arrival rate in simulated seconds (default 1000)
	Seed       int64   `json:"seed,omitempty"`         // trace seed (default 1)
	Prompt     int     `json:"prompt,omitempty"`       // prompt tokens per request (default 16)
	Output     int     `json:"output,omitempty"`       // generated tokens per request (default 8)
	MaxBatch   int     `json:"max_batch,omitempty"`    // continuous-batch capacity (default 4)
	KVBlock    int     `json:"kv_block,omitempty"`     // KV-cache page size in tokens (default 64)
	// CtxDist draws each request's prompt length from a seeded
	// distribution instead of the fixed Prompt: "" or "fixed" (default),
	// or "uniform:lo,hi".
	CtxDist string `json:"ctx_dist,omitempty"`
}

func (sv ServeSpec) withDefaults() ServeSpec {
	if sv.Requests <= 0 {
		sv.Requests = 4
	}
	if sv.RatePerSec <= 0 {
		sv.RatePerSec = 1000
	}
	if sv.Seed == 0 {
		sv.Seed = 1
	}
	if sv.Prompt <= 0 {
		sv.Prompt = 16
	}
	if sv.Output <= 0 {
		sv.Output = 8
	}
	if sv.MaxBatch <= 0 {
		sv.MaxBatch = 4
	}
	if sv.KVBlock <= 0 {
		sv.KVBlock = 64
	}
	return sv
}

// Resolve maps the wire spec onto the compile/simulate inputs. It is the
// one place a spec is validated: admission (Submit), fleet routing
// (ContentKey), the serving CLI and ptsim all resolve through it, so they
// accept and reject exactly the same specs.
func (s JobSpec) Resolve() (Resolved, error) {
	var r Resolved
	r.Spec = modelzoo.Spec{Model: s.Model, Batch: s.Batch, N: s.N, Seq: s.Seq, Ctx: s.Ctx, Prefill: s.Prefill,
		Topology: s.Topology, Parallel: s.Parallel}.Normalize()
	var err error
	r.Cfg, r.Net, err = ResolveMachine(s.NPU, s.Net)
	if err != nil {
		return r, err
	}
	r.NPU = s.NPU
	if r.NPU == "" {
		r.NPU = "tpuv3"
	}
	r.Topo, err = modelzoo.Topology(r.Spec, r.Cfg.Mem)
	if err != nil {
		return r, err
	}
	r.Opts = compiler.DefaultOptions()
	switch s.DMA {
	case "", "selective":
	case "coarse":
		r.Opts.DMA = compiler.DMACoarse
	case "fine":
		r.Opts.DMA = compiler.DMAFine
	default:
		return r, fmt.Errorf("service: unknown dma mode %q (coarse, fine, selective)", s.DMA)
	}
	if s.Fusion != nil {
		r.Opts.Fusion = *s.Fusion
	}
	if s.ConvOpt != nil {
		r.Opts.ConvLayoutOpt = *s.ConvOpt
	}
	r.Opts.MaxMt = s.MaxMt
	if s.MaxCycles < 0 {
		return r, fmt.Errorf("service: negative max_cycles %d", s.MaxCycles)
	}
	r.MaxCycles = s.MaxCycles
	if s.Serve != nil {
		if !strings.HasPrefix(s.Model, "decoder-") {
			return r, fmt.Errorf("service: serve jobs need a decoder model, got %q", s.Model)
		}
		if r.Topo.Packages() > 1 && r.Spec.Parallel != string(parallel.Tensor) {
			return r, fmt.Errorf("service: multi-package serving requires tensor parallelism, got %q", r.Spec.Parallel)
		}
		if s.Serve.Requests < 0 || s.Serve.Prompt < 0 || s.Serve.Output < 0 ||
			s.Serve.MaxBatch < 0 || s.Serve.KVBlock < 0 || s.Serve.RatePerSec < 0 {
			return r, fmt.Errorf("service: negative serve parameter in %+v", *s.Serve)
		}
		if _, err := serve.ParseCtxDist(s.Serve.CtxDist); err != nil {
			return r, err
		}
		sv := s.Serve.withDefaults()
		r.Serve = &sv
	}
	if !modelzoo.Known(s.Model) {
		return r, fmt.Errorf("service: unknown model %q (have %v)", s.Model, modelzoo.Models())
	}
	return r, nil
}

// ResolveMachine maps an NPU preset name and an interconnect name onto the
// machine a run simulates ("" means "tpuv3" and "sn"). JobSpec.Resolve
// resolves through it, and so does every command that names a machine
// without a whole spec (togsim, experiments).
func ResolveMachine(npuName, net string) (npu.Config, togsim.NetKind, error) {
	cfg, err := modelzoo.NPUConfig(npuName)
	if err != nil {
		return cfg, togsim.SimpleNet, err
	}
	switch net {
	case "", "sn":
		return cfg, togsim.SimpleNet, nil
	case "cn":
		return cfg, togsim.CycleNet, nil
	}
	return cfg, togsim.SimpleNet, fmt.Errorf("service: unknown net %q (sn, cn)", net)
}

// Resolved is a validated JobSpec: the normalized model spec, the machine
// it runs on and how it is compiled and simulated.
type Resolved struct {
	Spec      modelzoo.Spec
	Topo      topo.Config
	Cfg       npu.Config
	NPU       string // preset name of Cfg ("tpuv3" or "small")
	Opts      compiler.Options
	Net       togsim.NetKind
	MaxCycles int64
	Serve     *ServeSpec
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether a job in this state has finished (done or failed).
func (st State) Terminal() bool { return st == StateDone || st == StateFailed }

// JobResult is the outcome of a finished simulation.
type JobResult struct {
	Cycles      int64   `json:"cycles"`
	FreqMHz     int     `json:"freq_mhz"`
	SimulatedMs float64 `json:"simulated_ms"`
	WallMs      float64 `json:"wall_ms"`    // host time of the simulation run
	CompileMs   float64 `json:"compile_ms"` // host time spent compiling (0 on cache hit)
	CacheHit    bool    `json:"cache_hit"`  // compilation served from the cache
	CompileKey  string  `json:"compile_key"`
	// ResultHit reports a result served from the service's result cache:
	// an identical spec was simulated before, so this job simulated nothing
	// (WallMs and CompileMs are 0, CacheHit is true).
	ResultHit bool `json:"result_hit,omitempty"`

	// Report is the derived observability breakdown (per-core utilization,
	// per-job cycle classes, memory bandwidth) — the same formatter ptsim
	// -report prints, so the daemon response and the CLI can never drift.
	Report *report.Report `json:"report,omitempty"`

	// ServeReport is set instead of Report for serving jobs: request
	// latency percentiles, tokens/sec, and the prefill/decode compile-cache
	// breakdown.
	ServeReport *report.ServeReport `json:"serve_report,omitempty"`
}

// Canonical returns a copy with every host-time field zeroed — WallMs,
// CompileMs, CacheHit, ResultHit, and the reports' wall clocks. Everything
// left is a deterministic function of the spec, which is exactly the claim
// the fleet determinism oracle and the chaos test pin with DeepEqual:
// where a job ran (cold cache, warm peer, re-dispatched after a member
// death) may change how long it took, never what it computed.
func (r JobResult) Canonical() JobResult {
	r.WallMs = 0
	r.CompileMs = 0
	r.CacheHit = false
	r.ResultHit = false
	if r.Report != nil {
		rep := *r.Report
		rep.WallMs = 0
		r.Report = &rep
	}
	if r.ServeReport != nil {
		sr := *r.ServeReport
		sr.WallMs = 0
		r.ServeReport = &sr
	}
	return r
}

// Clone returns a deep copy of r that shares no report with it.
func (r JobResult) Clone() JobResult {
	if r.Report != nil {
		rep := r.Report.Clone()
		r.Report = &rep
	}
	if r.ServeReport != nil {
		sr := r.ServeReport.Clone()
		r.ServeReport = &sr
	}
	return r
}

// Clone returns a deep copy of s that shares no pointer with it.
func (s JobSpec) Clone() JobSpec {
	s.Fusion = clonePtr(s.Fusion)
	s.ConvOpt = clonePtr(s.ConvOpt)
	s.Serve = clonePtr(s.Serve)
	return s
}

// clonePtr returns a pointer to a copy of *p (nil for nil).
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// snapshot returns a deep copy of a live job record, so that a caller
// holding it can neither see nor make later changes to the record.
func (j *Job) snapshot() Job {
	cp := *j
	cp.Spec = j.Spec.Clone()
	if j.Result != nil {
		r := j.Result.Clone()
		cp.Result = &r
	}
	return cp
}

// Job is the service's record of one submission. Snapshot copies are
// returned to callers; the live record is only mutated by the service,
// under its board's lock.
type Job struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	Error string  `json:"error,omitempty"`
	// ErrorKind classifies failures machine-readably; "deadlock" carries
	// the engine's full stuck-job diagnostic in Error, "panic" the panic
	// value and its stack.
	ErrorKind string     `json:"error_kind,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   time.Time  `json:"started,omitempty"`
	Finished  time.Time  `json:"finished,omitempty"`
}

// Config sizes the service.
type Config struct {
	Workers    int   // concurrent simulations (default: GOMAXPROCS)
	QueueDepth int   // bounded queue capacity across all tenants (default 64)
	MaxCycles  int64 // default per-job deadlock guard (0 = togsim.DefaultMaxCycles)
	// TenantQueueDepth bounds one tenant's share of the queue
	// (0 = QueueDepth, i.e. no per-tenant throttling beyond the total).
	TenantQueueDepth int
	// TenantWeights sets weighted-fair shares per tenant name; absent
	// tenants weigh 1. A weight-3 tenant gets three dequeues for every one
	// of a weight-1 tenant under contention.
	TenantWeights map[string]int
}

// ParseTenantWeights parses the -tenant-weights flag, "a=3,b=1", into
// Config.TenantWeights ("" is nil: every tenant weighs 1).
func ParseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed tenant weight %q (want name=weight)", pair)
		}
		n, err := strconv.Atoi(w)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("tenant %q: weight %q must be a positive integer", name, w)
		}
		out[name] = n
	}
	return out, nil
}

// Stats is the service's observability surface. Every field is captured
// under one lock in a single snapshot, so the numbers are mutually
// consistent: queue depth, in-flight jobs, and the cumulative counters all
// describe the same instant (the /metrics endpoint renders the same
// snapshot, so the two surfaces can never disagree mid-scrape).
type Stats struct {
	Submitted int64 `json:"submitted"` // cumulative jobs accepted
	Queued    int64 `json:"queued"`    // current queue depth
	Running   int64 `json:"running"`   // jobs currently simulating
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheEvictions counts compiled artifacts dropped to keep the compile
	// cache within artifactEntries.
	CacheEvictions int64 `json:"cache_evictions"`

	// ResultHits counts jobs served from the result cache, ResultMisses
	// jobs that simulated (serving jobs included), ResultEvictions results
	// dropped to keep the cache within resultEntries.
	ResultHits      int64 `json:"result_hits"`
	ResultMisses    int64 `json:"result_misses"`
	ResultEvictions int64 `json:"result_evictions"`

	// DiskHits/DiskMisses count lookups against the attached artifact
	// store stack — persistent disk and/or remote peer tiers (always zero
	// until EnableDiskCache or EnablePeerCache).
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`

	// PeerHits/PeerMisses count lookups that reached the remote peer tier;
	// PeerPuts counts artifacts pushed to their hash owner; PeerErrors
	// counts transport or verification failures (every one degraded to a
	// clean miss). All zero until EnablePeerCache.
	PeerHits   int64 `json:"peer_hits,omitempty"`
	PeerMisses int64 `json:"peer_misses,omitempty"`
	PeerPuts   int64 `json:"peer_puts,omitempty"`
	PeerErrors int64 `json:"peer_errors,omitempty"`

	// KernelsMeasured counts kernel measurements run by compilations so
	// far. A node that compiled a model whose kernel latencies all arrived
	// from a warm peer (or disk) shows a compile-cache miss here but zero
	// new measurements — the "zero recompilation" pin of the fleet's
	// remote cache tier.
	KernelsMeasured int64 `json:"kernels_measured"`

	// TenantQueued is the per-tenant queue depth; TenantDone counts
	// finished jobs per tenant. Tenants appear once they have submitted.
	TenantQueued map[string]int64 `json:"tenant_queued,omitempty"`
	TenantDone   map[string]int64 `json:"tenant_done,omitempty"`

	// TotalCycles sums the cycles of finished jobs, result-cache hits
	// included; WallSeconds sums the host time of the jobs that simulated;
	// CyclesPerSecond divides the cycles of those same jobs (hits, which
	// simulate nothing, excluded) by WallSeconds — the aggregate simulation
	// rate the paper's speed argument is about.
	TotalCycles     int64   `json:"total_cycles"`
	WallSeconds     float64 `json:"wall_seconds"`
	CyclesPerSecond float64 `json:"cycles_per_second"`

	// ServeRequests/ServeTokens accumulate over finished serving jobs:
	// requests completed and tokens generated by the continuous-batching
	// scheduler.
	ServeRequests int64 `json:"serve_requests"`
	ServeTokens   int64 `json:"serve_tokens"`

	// EnergyJoules accumulates the post-hoc energy of finished jobs keyed
	// by unit class (report.EnergyUnits order on /metrics). Empty until a
	// job's NPU config carries a non-zero energy table.
	EnergyJoules map[string]float64 `json:"energy_joules,omitempty"`

	// PackageEnergyJoules accumulates multi-package jobs' per-package
	// energy, keyed by package index as a string (exported on /metrics as
	// ptsimd_package_energy_joules_total{package="<i>"}; the unit-class
	// split of the same joules stays in EnergyJoules). Empty until a
	// multi-package job finishes.
	PackageEnergyJoules map[string]float64 `json:"package_energy_joules,omitempty"`

	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
}

// resultEntries bounds the result cache. An entry is one JobResult with
// its Report plus the table's bookkeeping: about 1.1 KiB for a
// single-package spec and 0.3 KiB more per further package (DESIGN.md), so
// the cache holds about 1.2 MB of single-package results, 2.2 MB of
// four-package ones — a few compiled artifacts' worth. A serving entry
// holds a ServeReport instead, 1.4 KiB at the ServeSpec defaults plus about
// 0.18 KiB per further request.
const resultEntries = 1024

// Service runs simulations from a bounded weighted-fair queue on a fixed
// worker pool.
type Service struct {
	cfg   Config
	cache *Cache

	// results is the result cache: resolved spec → JobResult, for every
	// job. engineRun simulates a resolved spec on a miss; tests replace it
	// to inject faults.
	results   *flightTable[JobResult]
	engineRun func(r Resolved, probe obs.Probe) (JobResult, error)

	// localStore is the tier this node serves to fleet peers over
	// /cache/{key} (memory, or memory-over-disk); the compile cache sees
	// it stacked under the peer tier when one is attached. Serving only
	// the local tier to peers keeps peer lookups from recursing across
	// the cluster.
	localStore cache.Store
	peer       *cache.Peer

	events *Hub[JobEvent]
	jobs   *Board[Job]

	// Run accounting, guarded by the board's lock so that Stats is one
	// consistent snapshot (the cache has its own lock).
	cycles      int64 // every finished job's cycles
	simCycles   int64 // the cycles of jobs that simulated (no result hit)
	wallNs      int64 // the host time of those jobs
	cacheHits   int64
	cacheMisses int64
	serveReqs   int64
	serveTokens int64
	energyJ     map[string]float64 // cumulative joules by unit class
	pkgEnergyJ  map[string]float64 // cumulative joules by package index

	reg          *metrics.Registry
	queueWait    *metrics.Histogram
	jobLat       *metrics.Histogram
	serveTTFT    *metrics.Histogram
	compilePhase map[compiler.Phase]*metrics.Histogram
}

// New returns a stopped service; call Start to launch the worker pool.
// (The split lets tests fill the queue deterministically first.)
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	s := &Service{
		cfg:     cfg,
		cache:   NewCache(),
		results: newFlightTable[JobResult](resultEntries),
		jobs:    NewBoard("job-", cfg.QueueDepth, cfg.TenantQueueDepth, cfg.TenantWeights, (*Job).snapshot),
		reg:     metrics.NewRegistry(),
		events:  NewHub[JobEvent](),
	}
	s.engineRun = s.simulate
	s.queueWait = s.reg.NewHistogram("ptsimd_queue_wait_seconds",
		"Time jobs spend queued before a worker picks them up.",
		metrics.ExpBuckets(0.001, 4, 10))
	s.jobLat = s.reg.NewHistogram("ptsimd_job_duration_seconds",
		"End-to-end job latency from submission to completion.",
		metrics.ExpBuckets(0.001, 4, 12))
	s.serveTTFT = s.reg.NewHistogram("ptsimd_serve_ttft_seconds",
		"Simulated time-to-first-token of serving-job requests.",
		metrics.ExpBuckets(1e-6, 4, 12))
	s.compilePhase = map[compiler.Phase]*metrics.Histogram{}
	for _, ph := range compiler.Phases() {
		s.compilePhase[ph] = s.reg.NewHistogram(
			fmt.Sprintf("ptsimd_compile_%s_seconds", ph),
			fmt.Sprintf("Host time of the compiler's %s pass.", ph),
			metrics.ExpBuckets(0.0001, 4, 10))
	}
	// Every compiler the cache creates reports its pass latencies into the
	// phase histograms.
	s.cache.SetCompilerHook(func(c *compiler.Compiler) {
		c.PhaseHook = func(ph compiler.Phase, d time.Duration) {
			if h := s.compilePhase[ph]; h != nil {
				h.Observe(d.Seconds())
			}
		}
	})
	s.reg.Register(metrics.CollectorFunc(s.collect))
	return s
}

// EnableDiskCache attaches the persistent compile-cache tier rooted at dir
// (layered: in-memory over versioned on-disk entries). Kernel latencies
// measured by this or any previous process are read from it before any
// measurement, so a daemon restart re-measures nothing already covered. Call before
// Start.
func (s *Service) EnableDiskCache(dir string) error {
	disk, err := cache.NewDisk(dir)
	if err != nil {
		return err
	}
	s.localStore = cache.NewLayered(cache.NewMemory(), disk)
	s.rewireStore()
	return nil
}

// EnablePeerCache attaches the fleet's remote cache tier: artifact lookups
// that miss locally ask the key's consistent-hash owner, and freshly built
// artifacts are pushed to that owner so any member can backfill them. The
// peer tier always stacks below the local one, and this node serves its
// local tier (never the peer tier) on GET /cache/{key}, so lookups cannot
// recurse around the ring. Call before Start (after EnableDiskCache when
// both are wanted).
func (s *Service) EnablePeerCache(p *cache.Peer) {
	s.peer = p
	s.rewireStore()
}

// rewireStore rebuilds the compile cache's store stack from the attached
// tiers: local (memory and/or disk), with the peer tier layered beneath.
func (s *Service) rewireStore() {
	if s.localStore == nil {
		s.localStore = cache.NewMemory()
	}
	st := s.localStore
	if s.peer != nil {
		st = cache.NewLayered(st, s.peer)
	}
	s.cache.SetStore(st)
}

// CacheGet serves one artifact from the node's local store tier to a fleet
// peer (GET /cache/{key}); ok=false when no store is attached or the key
// is absent.
func (s *Service) CacheGet(key string) ([]byte, bool) {
	if s.localStore == nil {
		return nil, false
	}
	return s.localStore.Get(key)
}

// CachePut stores one artifact pushed by a fleet peer (PUT /cache/{key})
// into the node's local store tier.
func (s *Service) CachePut(key string, data []byte) error {
	if s.localStore == nil {
		return fmt.Errorf("service: no cache store attached")
	}
	return s.localStore.Put(key, data)
}

// Metrics returns the registry backing GET /metrics. The histograms are
// fed by the workers; everything else is emitted at scrape time from one
// Stats snapshot.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// collect emits every point-in-time family from a single Stats snapshot,
// so one scrape can never observe counters that disagree with each other
// or with /stats.
func (s *Service) collect(e *metrics.Emitter) {
	st := s.Stats()
	e.Gauge("ptsimd_jobs_queued", "Jobs waiting in the bounded queue.", float64(st.Queued))
	e.Gauge("ptsimd_jobs_running", "Jobs currently simulating.", float64(st.Running))
	e.Counter("ptsimd_jobs_submitted_total", "Jobs accepted by admission control.", float64(st.Submitted))
	e.Counter("ptsimd_jobs_done_total", "Jobs finished successfully.", float64(st.Done))
	e.Counter("ptsimd_jobs_failed_total", "Jobs that ended in an error.", float64(st.Failed))
	e.Counter("ptsimd_compile_cache_hits_total", "Compilations served from the content-addressed cache.", float64(st.CacheHits))
	e.Counter("ptsimd_compile_cache_misses_total", "Compilations that ran the compiler.", float64(st.CacheMisses))
	e.Counter("ptsimd_compile_cache_evictions_total", "Compiled artifacts evicted to keep the compile cache within its bound.", float64(st.CacheEvictions))
	e.Counter("ptsimd_result_cache_hits_total", "Jobs served from the result cache without simulating.", float64(st.ResultHits))
	e.Counter("ptsimd_result_cache_misses_total", "Jobs that simulated because the result cache had no result for their spec.", float64(st.ResultMisses))
	e.Counter("ptsimd_result_cache_evictions_total", "Results evicted to keep the result cache within its bound.", float64(st.ResultEvictions))
	e.Counter("ptsimd_compile_disk_hits_total", "Persistent-store lookups that found a valid artifact.", float64(st.DiskHits))
	e.Counter("ptsimd_compile_disk_misses_total", "Persistent-store lookups that missed (absent, corrupt, or stale).", float64(st.DiskMisses))
	e.Counter("ptsimd_kernels_measured_total", "Kernel measurements run by compilations (zero on warm-cache compiles).", float64(st.KernelsMeasured))
	if s.peer != nil { // peer families render only on fleet members
		e.Counter("ptsimd_peer_cache_hits_total", "Artifact lookups served by a fleet peer.", float64(st.PeerHits))
		e.Counter("ptsimd_peer_cache_misses_total", "Artifact lookups no peer could serve.", float64(st.PeerMisses))
		e.Counter("ptsimd_peer_cache_puts_total", "Artifacts pushed to their consistent-hash owner.", float64(st.PeerPuts))
		e.Counter("ptsimd_peer_cache_errors_total", "Peer transport or verification failures (each degraded to a miss).", float64(st.PeerErrors))
	}
	if len(st.TenantQueued) > 0 {
		e.GaugeVec("ptsimd_tenant_queued", "Per-tenant queue depth in the weighted-fair queue.",
			"tenant", metrics.TenantSamples(st.TenantQueued))
	}
	if len(st.TenantDone) > 0 {
		e.CounterVec("ptsimd_tenant_jobs_done_total", "Finished jobs per tenant.",
			"tenant", metrics.TenantSamples(st.TenantDone))
	}
	e.Counter("ptsimd_simulated_cycles_total", "Simulated cycles summed over finished jobs, result-cache hits included.", float64(st.TotalCycles))
	e.Counter("ptsimd_serve_requests_total", "Requests completed by serving jobs.", float64(st.ServeRequests))
	e.Counter("ptsimd_serve_tokens_generated_total", "Tokens generated by serving jobs.", float64(st.ServeTokens))
	e.Gauge("ptsimd_simulation_cycles_per_second", "Aggregate simulation rate: cycles per host second of the jobs that simulated (result-cache hits excluded).", st.CyclesPerSecond)
	if len(st.EnergyJoules) > 0 {
		// Fixed unit order keeps the scrape byte-stable.
		samples := make([]metrics.LabeledSample, 0, len(report.EnergyUnits))
		for _, unit := range report.EnergyUnits {
			samples = append(samples, metrics.LabeledSample{Label: unit, Value: st.EnergyJoules[unit]})
		}
		e.CounterVec("ptsimd_energy_joules_total",
			"Post-hoc simulated energy of finished jobs by unit class.",
			"unit", samples)
	}
	if len(st.PackageEnergyJoules) > 0 {
		// Sorted numeric package order keeps the scrape byte-stable.
		keys := make([]string, 0, len(st.PackageEnergyJoules))
		for k := range st.PackageEnergyJoules {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, _ := strconv.Atoi(keys[i])
			b, _ := strconv.Atoi(keys[j])
			return a < b
		})
		samples := make([]metrics.LabeledSample, 0, len(keys))
		for _, k := range keys {
			samples = append(samples, metrics.LabeledSample{Label: k, Value: st.PackageEnergyJoules[k]})
		}
		e.CounterVec("ptsimd_package_energy_joules_total",
			"Post-hoc simulated energy of finished multi-package jobs by package.",
			"package", samples)
	}
	e.Gauge("ptsimd_workers", "Size of the worker pool.", float64(st.Workers))
	e.Gauge("ptsimd_queue_capacity", "Bounded job queue capacity.", float64(st.QueueDepth))
	busy := 0.0
	if st.Workers > 0 {
		busy = float64(st.Running) / float64(st.Workers)
	}
	e.Gauge("ptsimd_worker_busy_fraction", "Fraction of workers currently simulating.", busy)
}

// Cache exposes the compile cache (shared with e.g. sched adapters).
func (s *Service) Cache() *Cache { return s.cache }

// Start launches the worker pool; call once.
func (s *Service) Start() { s.jobs.Start(s.cfg.Workers, s.run) }

// Close stops admission, drains the queue, and waits for in-flight jobs.
func (s *Service) Close() {
	s.jobs.Close()
	s.events.CloseAll()
}

// Submit validates and enqueues a job. It never blocks: a full queue
// returns *OverloadError immediately (admission control), a closed service
// ErrClosed, an invalid spec the validation error, and otherwise the
// queued job's snapshot is returned. A spec whose result the result cache
// already holds is answered at admission instead: the job is recorded done
// with the hit as its result, takes no queue slot and no worker, and so is
// bounded by neither queue depth. A spec still in flight queues as usual
// and its worker joins the flight.
func (s *Service) Submit(spec JobSpec) (Job, error) {
	r, err := s.resolve(spec)
	if err != nil {
		return Job{}, err
	}
	if res, ok := s.results.Peek(resultKey(r)); ok {
		return s.finishAtAdmission(spec, hitResult(res))
	}
	j, err := s.jobs.Submit(spec.Tenant, spec.Priority, func(id string) *Job {
		return &Job{ID: id, Spec: spec.Clone(), State: StateQueued, Submitted: time.Now()}
	})
	if err == nil {
		s.events.Publish(j.ID, JobEvent{Kind: "state", State: StateQueued, Tenant: spec.Tenant})
	}
	return j, err
}

// finishAtAdmission records a job whose result is a result-cache hit as
// done, books it as run's Finish books a hit (its cycles under the board's
// lock, then account), observes both latency histograms at zero and ends
// its event stream.
func (s *Service) finishAtAdmission(spec JobSpec, res JobResult) (Job, error) {
	j, err := s.jobs.Record(spec.Tenant, func(id string) *Job {
		s.cycles += res.Cycles
		now := time.Now()
		return &Job{ID: id, Spec: spec.Clone(), State: StateDone, Result: &res,
			Submitted: now, Started: now, Finished: now}
	})
	if err != nil {
		return j, err
	}
	s.account(res)
	s.queueWait.Observe(0)
	s.jobLat.Observe(0)
	s.events.Publish(j.ID, JobEvent{Kind: "state", State: StateDone, Tenant: spec.Tenant, Cycles: res.Cycles})
	s.events.Finish(j.ID)
	return j, nil
}

// Get returns a snapshot of the job with the given id.
func (s *Service) Get(id string) (Job, bool) { return s.jobs.Get(id) }

// Wait blocks until the job finishes (done or failed) and returns its
// final snapshot.
func (s *Service) Wait(id string) (Job, error) { return s.jobs.Wait(id) }

// Stats returns the current counters as one consistent snapshot: every
// field is read under the same lock acquisition.
func (s *Service) Stats() Stats {
	var st Stats
	var simCycles int64
	c := s.jobs.Counts(func() {
		simCycles = s.simCycles
		st = Stats{
			CacheHits: s.cacheHits, CacheMisses: s.cacheMisses,
			TotalCycles: s.cycles, WallSeconds: float64(s.wallNs) / 1e9,
			ServeRequests: s.serveReqs, ServeTokens: s.serveTokens,
			EnergyJoules: copyMap(s.energyJ), PackageEnergyJoules: copyMap(s.pkgEnergyJ),
			KernelsMeasured: s.cache.Measured(),
			Workers:         s.cfg.Workers, QueueDepth: s.cfg.QueueDepth,
		}
		st.DiskHits, st.DiskMisses = s.cache.StoreStats()
		if s.peer != nil {
			st.PeerHits, st.PeerMisses = s.peer.Stats()
			st.PeerPuts, st.PeerErrors = s.peer.NetStats()
		}
		st.CacheEvictions = s.cache.Evictions()
		st.ResultHits, st.ResultMisses, st.ResultEvictions, _ = s.results.stats()
	})
	st.Submitted, st.Queued, st.Running, st.Done, st.Failed = c.Submitted, c.Queued, c.Running, c.Done, c.Failed
	st.TenantQueued, st.TenantDone = c.TenantQueued, c.TenantDone
	if st.WallSeconds > 0 {
		st.CyclesPerSecond = float64(simCycles) / st.WallSeconds
	}
	return st
}

// copyMap returns a copy of m, nil when m is empty.
func copyMap(m map[string]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// account books one finished job's simulated outcome, a run or a result
// hit alike, into the cumulative service counters: energy by unit class
// and by package, and for a serving job its requests, tokens, TTFT samples
// and the energy of both phases.
func (s *Service) account(res JobResult) {
	if rep := res.Report; rep != nil {
		s.accountEnergy(rep.Energy)
		s.accountPackages(rep.Topology)
	}
	if sr := res.ServeReport; sr != nil {
		for _, rr := range sr.PerRequest {
			s.serveTTFT.Observe(rr.TTFTMs / 1e3)
		}
		s.jobs.Locked(func() {
			s.serveReqs += int64(sr.Requests)
			s.serveTokens += sr.TokensOut
		})
		s.accountEnergy(sr.PrefillEnergy)
		s.accountEnergy(sr.DecodeEnergy)
	}
}

// accountEnergy folds one finished run's derived energy breakdown into the
// cumulative service counters. No-op for a nil breakdown (the config has
// no energy table).
func (s *Service) accountEnergy(e *report.EnergyReport) {
	if e == nil {
		return
	}
	s.jobs.Locked(func() {
		if s.energyJ == nil {
			s.energyJ = map[string]float64{}
		}
		for _, u := range e.UnitMilliJ() {
			s.energyJ[u.Unit] += u.MJ / 1e3
		}
	})
}

// accountPackages folds a multi-package run's per-package energy into the
// cumulative counters behind ptsimd_package_energy_joules_total. No-op for
// nil breakdowns or zero energy tables.
func (s *Service) accountPackages(t *report.TopologyReport) {
	if t == nil || t.EnergyMilliJ == 0 {
		return
	}
	s.jobs.Locked(func() {
		if s.pkgEnergyJ == nil {
			s.pkgEnergyJ = map[string]float64{}
		}
		for _, p := range t.PerPackage {
			s.pkgEnergyJ[fmt.Sprintf("%d", p.Package)] += p.EnergyMilliJ / 1e3
		}
	})
}

// run is a worker's whole job: Simulate, then finish the job on the board.
func (s *Service) run(j *Job) {
	s.jobs.Locked(func() {
		j.State = StateRunning
		j.Started = time.Now()
	})
	s.queueWait.Observe(j.Started.Sub(j.Submitted).Seconds())
	s.events.Publish(j.ID, JobEvent{Kind: "state", State: StateRunning, Tenant: j.Spec.Tenant})

	// Serving jobs run unprobed: a probe makes serve.Run simulate every
	// iteration instead of replaying repeated shapes.
	var probe obs.Probe
	if j.Spec.Serve == nil {
		probe = progressProbe(s.events, j.ID)
	}
	res, err := func() (res JobResult, err error) {
		// A panic fails this job alone, not the daemon and every queued job.
		defer func() {
			if p := recover(); p != nil {
				err = asPanicError(p)
			}
		}()
		return s.Simulate(j.Spec, probe)
	}()

	final := JobEvent{Kind: "state", Tenant: j.Spec.Tenant}
	s.jobs.Finish(j.ID, func() bool {
		j.Finished = time.Now()
		if err != nil {
			j.State = StateFailed
			j.Error = err.Error()
			var dl *togsim.DeadlockError
			var pe *PanicError
			switch {
			case errors.As(err, &dl):
				j.ErrorKind = "deadlock"
			case errors.As(err, &pe):
				j.ErrorKind = "panic"
			}
		} else {
			j.State = StateDone
			j.Result = &res
			s.cycles += res.Cycles
			if !res.ResultHit {
				s.simCycles += res.Cycles
				s.wallNs += int64(res.WallMs * 1e6)
			}
			final.Cycles = res.Cycles
		}
		final.State, final.Error = j.State, j.Error
		return err != nil
	}, func() {
		s.jobLat.Observe(j.Finished.Sub(j.Submitted).Seconds())
		s.events.Publish(j.ID, final)
		s.events.Finish(j.ID)
	})
}

// Simulate is one job's whole pipeline, run synchronously on the caller's
// goroutine: resolve, then look the resolved spec up in the result cache
// and, on a miss, compile-or-fetch and run it through core.Simulator's run
// body — the same funnel a standalone ptsim run goes through, so service
// cycles are bit-identical to the CLI's for the same spec, on one package
// or many. A serving job replays its arrival trace through serve.Run
// instead; this is the whole of ptserve. probe, when non-nil, receives the
// engine's trace events (for serving jobs, stitched onto one timeline);
// attached probes are proven invisible in Results by the crosscheck probe
// oracle, so observing a job can never change its outcome.
//
// Every spec, serving specs included, is simulated once per service: its
// result is kept in the result cache under the canonical hash of the
// resolved spec (with the effective max_cycles filled in), and an
// identical spec — whatever its tenant or priority — gets a copy with
// ResultHit set and no host time, probe left silent. Concurrent identical
// specs wait for the one run; errors are not kept. Hits account energy and
// serving counters in the service stats exactly as runs do.
func (s *Service) Simulate(spec JobSpec, probe obs.Probe) (JobResult, error) {
	r, err := s.resolve(spec)
	if err != nil {
		return JobResult{}, err
	}
	res, hit, err := s.results.Do(resultKey(r), func() (JobResult, error) {
		return s.engineRun(r, probe)
	})
	if err != nil {
		return JobResult{}, err
	}
	if hit {
		res = hitResult(res)
	} else {
		res = res.Clone()
	}
	s.account(res)
	return res, nil
}

// resultKey is the result-cache key of a resolved spec: Simulate runs and
// looks up results under it, and Submit answers a hit at admission under
// it.
func resultKey(r Resolved) string { return cache.CanonicalHash(r) }

// hitResult is a cached result as a hit reports it: a deep copy with
// ResultHit and CacheHit set and every host time (WallMs, CompileMs, the
// reports' wall clocks) zeroed, since the hit simulated nothing.
func hitResult(res JobResult) JobResult {
	res = res.Clone()
	res.WallMs, res.CompileMs, res.CacheHit, res.ResultHit = 0, 0, true, true
	if res.Report != nil {
		res.Report.WallMs = 0
	}
	if res.ServeReport != nil {
		res.ServeReport.WallMs = 0
	}
	return res
}

// resolve is spec.Resolve with the effective cycle limit filled in, so
// that a spec naming the default limit and one leaving it out are the same
// result-cache key.
func (s *Service) resolve(spec JobSpec) (Resolved, error) {
	r, err := spec.Resolve()
	if r.MaxCycles == 0 {
		r.MaxCycles = s.cfg.MaxCycles
	}
	if r.MaxCycles == 0 {
		r.MaxCycles = togsim.DefaultMaxCycles
	}
	return r, err
}

// simulate is the result cache's miss path: a serving spec replays its
// trace (runServe); any other spec is compiled (or fetched) and run once.
func (s *Service) simulate(r Resolved, probe obs.Probe) (JobResult, error) {
	if r.Serve != nil {
		return s.runServe(r, probe)
	}
	compileStart := time.Now()
	comp, key, hit, err := s.compile(r.Spec, r.Cfg, r.Opts)
	if err != nil {
		return JobResult{}, err
	}
	compileMs := float64(time.Since(compileStart)) / 1e6
	if hit {
		compileMs = 0
	}
	sim := core.Simulator{Cfg: r.Cfg, Topo: r.Topo, MaxCycles: r.MaxCycles, Probe: probe}
	run, err := sim.SimulateTLS(comp, r.Net)
	if err != nil {
		return JobResult{}, err
	}
	rep := report.Build(run.Machine, run.Inputs())
	return JobResult{
		Cycles:      run.Cycles,
		FreqMHz:     r.Cfg.FreqMHz,
		SimulatedMs: float64(run.Cycles) / float64(r.Cfg.FreqMHz) / 1e3,
		WallMs:      float64(run.WallClock) / 1e6,
		CompileMs:   compileMs,
		CacheHit:    hit,
		CompileKey:  key,
		Report:      &rep,
	}, nil
}

// compile resolves one spec through the content-addressed compile cache,
// accounting the hit or miss in the service stats. Plain jobs and every
// prefill pass and decode step of a serving job come through here.
func (s *Service) compile(spec modelzoo.Spec, cfg npu.Config, opts compiler.Options) (*compiler.Compiled, string, bool, error) {
	comp, key, hit, err := s.cache.CompileSpec(spec, cfg, opts)
	if err == nil {
		s.jobs.Locked(func() {
			if hit {
				s.cacheHits++
			} else {
				s.cacheMisses++
			}
		})
	}
	return comp, key, hit, err
}

// runServe is a serving job's whole run: synthesize the seeded arrival
// trace and replay it through the continuous-batching scheduler, with
// every iteration compiled through the shared cache.
func (s *Service) runServe(r Resolved, probe obs.Probe) (JobResult, error) {
	sv := *r.Serve
	cfg := serve.Config{
		Model:     r.Spec.Model,
		NPU:       r.Cfg,
		Net:       r.Net,
		MaxBatch:  sv.MaxBatch,
		KVBlock:   sv.KVBlock,
		MaxCycles: r.MaxCycles,
		Compile: func(spec modelzoo.Spec) (*compiler.Compiled, bool, error) {
			comp, _, hit, err := s.compile(spec, r.Cfg, r.Opts)
			return comp, hit, err
		},
		Probe: probe,
	}
	if r.Topo.Packages() > 1 {
		cfg.Topo, cfg.Parallel = r.Topo, r.Spec.Parallel
	}
	reqs := serve.PoissonTrace(sv.Seed, sv.Requests, sv.RatePerSec, r.Cfg.FreqMHz, sv.Prompt, sv.Output)
	dist, err := serve.ParseCtxDist(sv.CtxDist)
	if err != nil {
		return JobResult{}, err
	}
	serve.ApplyCtxDist(reqs, dist, sv.Seed)
	start := time.Now()
	rep, err := serve.Run(cfg, reqs)
	if err != nil {
		return JobResult{}, err
	}
	rep.NPU = r.NPU
	rep.WallMs = float64(time.Since(start)) / 1e6
	return JobResult{
		Cycles:      rep.Cycles,
		FreqMHz:     r.Cfg.FreqMHz,
		SimulatedMs: rep.SimulatedMs,
		WallMs:      rep.WallMs,
		ServeReport: &rep,
	}, nil
}
