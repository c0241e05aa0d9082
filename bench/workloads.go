package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/service/modelzoo"
)

// metricDef names one metric the benchmark prints. The lists below are the
// ones BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the numbers a user of the simulator sees. An "op" is the
// workload's unit of work: one simulation, one cold compile of the zoo, one
// serving run, or one job through the daemon.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"rss_p90_mb", "MB", "lower"},
}

// perLayer come from the traced run. A metric that does not apply to a
// workload is printed as 0 there.
var perLayer = []metricDef{
	{"graph.build_s", "s", "lower"},
	{"graph.nodes", "count", "lower"},
	{"compiler.lower_s", "s", "lower"},
	{"compiler.codegen_s", "s", "lower"},
	{"compiler.measure_s", "s", "lower"},
	{"compiler.emit_s", "s", "lower"},
	{"compiler.kernels_measured", "count", "lower"},
	{"compiler.sig_lookups", "count", "lower"},
	{"timingsim.measure_s", "s", "lower"},
	{"timingsim.calls", "count", "lower"},
	{"togsim.engine_run_s", "s", "lower"},
	{"togsim.engine_self_s", "s", "lower"},
	{"togsim.host_ns_per_cycle", "ns", "lower"},
	{"togsim.sim_cycles_per_s", "1/s", "higher"},
	{"fabric.self_s", "s", "lower"},
	{"fabric.submit_calls", "count", "lower"},
	{"fabric.tick_calls", "count", "lower"},
	{"fabric.next_event_calls", "count", "lower"},
	{"fabric.skip_calls", "count", "lower"},
	{"fabric.completed_calls", "count", "lower"},
	{"dram.busy_s", "s", "lower"},
	{"dram.ticks", "count", "lower"},
	{"dram.requests", "count", "lower"},
	{"dram.row_hit_ratio", "%", "higher"},
	{"noc.busy_s", "s", "lower"},
	{"noc.ticks", "count", "lower"},
	{"noc.flits", "count", "lower"},
	{"noc_cn.busy_s", "s", "lower"},
	{"noc_cn.ticks", "count", "lower"},
	{"report.build_s", "s", "lower"},
	{"serve.run_s", "s", "lower"},
	{"serve.iterations", "count", "lower"},
	{"serve.compile_s", "s", "lower"},
	{"serve.compile_hit_ratio", "%", "higher"},
	{"serve.iter_self_s", "s", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.run_ms", "ms", "lower"},
	{"service.compile_ms", "ms", "lower"},
	{"service.sim_wall_ms", "ms", "lower"},
	{"service.http_overhead_ms", "ms", "lower"},
	{"service.polls_per_job", "count", "lower"},
	{"service.cache_hit_ratio", "%", "higher"},
	{"service.kernels_measured", "count", "lower"},
	{"fleet.coord_overhead_ms", "ms", "lower"},
	{"fleet.attempts_per_job", "count", "lower"},
	{"fleet.requeued", "count", "lower"},
	{"fleet.peer_hits", "count", "higher"},
	{"fleet.peer_misses", "count", "lower"},
	{"fleet.dispatch_imbalance", "ratio", "lower"},
	{"ils.wall_s", "s", "lower"},
	{"tls_sn.wall_s", "s", "lower"},
	{"tls_cn.wall_s", "s", "lower"},
	{"tls_over_ils", "ratio", "higher"},
	{"trace.self_sum_ratio", "ratio", "lower"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) (*outcome, error)
}

var workloads = []workload{
	{"sim.resnet18-c1",
		"conv-heavy model on one simulated core: the single-core engine path and the heaviest compile in setup_s; multi-core engine work must not move it",
		func(rc *runCtx) (*outcome, error) { return runSim(rc, rc.prof.simConv, 1) }},
	{"sim.bert-base-c1",
		"delivery-dense model on one core (1368 TOGs of per-tile DMA bursts): fabric, DRAM and NoC ticking dominate, so burst coalescing shows here",
		func(rc *runCtx) (*outcome, error) { return runSim(rc, rc.prof.simDense, 1) }},
	{"sim.resnet18-c4",
		"the same compiled resnet18 on 4 simulated cores sharing one fabric: host cost per cycle is ~4.5x one core, where the next-event rescan lives",
		func(rc *runCtx) (*outcome, error) { return runSim(rc, rc.prof.simConv, rc.prof.multiCores) }},
	{"compile.zoo-cold",
		"cold compile of eight zoo models with a fresh compiler each: no engine time, so only compiler, codegen and timingsim changes move it",
		runCompileZoo},
	{"serve.decoder-small",
		"continuous-batching trace of 41 short iterations, each on a fresh engine stack: per-iteration set-up and the compile-cache hit path dominate",
		runServe},
	{"svc.mix-closed",
		"closed-loop HTTP clients on one in-process ptsimd, 5/6 repeated specs and 1/6 never-seen shapes: queue, workers, compile cache hit and miss, JSON",
		func(rc *runCtx) (*outcome, error) { return runJobs(rc, false) }},
	{"fleet.mix-closed",
		"the same job list through a 3-member fleet coordinator: the difference to svc.mix-closed is routing, the submit-poll loop and peer-cache traffic",
		func(rc *runCtx) (*outcome, error) { return runJobs(rc, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx is what a workload is given: the seed its inputs come from, how
// long to measure, the shapes to use, the pinned results to check against,
// and a tracer that is nil on the untraced run.
type runCtx struct {
	name    string
	seed    int64
	seconds float64
	prof    *profile
	want    *expectedSet
	tr      *tracer
}

func (rc *runCtx) traced() bool { return rc.tr != nil }

// outcome is what a workload hands back; result() turns it into metrics.
type outcome struct {
	opMs      []float64 // host latency of each completed op
	timedS    float64   // time the ops took together (wall time of the section for the job workloads)
	setupS    []float64 // each repetition of the set-up
	rssMB     []float64 // resident set, sampled during the timed section
	attempted int
	failed    int
	problems  []string           // first few correctness failures, for the human reader
	layer     map[string]float64 // per-layer metrics, traced run only
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// timedLoop runs op until the measuring time is used up, at least once. It
// records each op's latency and the time the ops took together. A failed op
// is counted and keeps no latency. Every op starts from a collected heap,
// as a one-shot ptsim or ptserve run does: otherwise where the collector
// happens to be when an op begins decides how many cycles it pays for and
// how high the process's memory peaks, and both wander from run to run. The
// collections are not part of any op and not of the measuring time.
func (o *outcome) timedLoop(seconds float64, op func(i int) error) {
	rss := startRSSSampler()
	defer func() { o.rssMB = rss.finish() }()
	var busy time.Duration
	for i := 0; i == 0 || busy.Seconds() < seconds; i++ {
		runtime.GC()
		t := time.Now()
		err := op(i)
		d := time.Since(t)
		busy += d
		o.attempted++
		if err != nil {
			o.fail("op %d: %v", i, err)
			continue
		}
		o.opMs = append(o.opMs, float64(d)/1e6)
	}
	o.timedS = busy.Seconds()
}

// setupLoop repeats the set-up n times and records how long each took. Like
// an op, each repetition starts from a collected heap.
func (o *outcome) setupLoop(n int, setup func(i int) error) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		o.setupS = append(o.setupS, time.Since(t).Seconds())
	}
	return nil
}

// profile holds the shapes. The full profile is the benchmark; the quick
// profile drives the same code on tiny shapes so tests finish in seconds.
type profile struct {
	name       string
	npu        string // modelzoo NPU preset
	simConv    modelzoo.Spec
	simDense   modelzoo.Spec
	multiCores int
	zoo        []modelzoo.Spec
	// Repetitions behind setup_s: of a set-up that takes a tenth of a second
	// (one cold compile), and of one that takes a second (the zoo, a boot).
	setupReps, heavySetupReps int

	serveModel                         string
	serveReqs, servePrompt, serveGen   int
	serveRate                          float64
	serveMaxBatch, serveKVBlock        int
	figN                               int // GEMM size of the Fig. 6 aside
	jobsCheap, jobsHeavy               []jobSpec
	heavyRepeat                        int
	coldCheap, coldHeavy               []jobSpec
	coldCheapPerBlock, coldHeavyPerBlk int
}

var fullProfile = &profile{
	name:       "full",
	npu:        "tpuv3",
	simConv:    modelzoo.Spec{Model: "resnet18", Batch: 1},
	simDense:   modelzoo.Spec{Model: "bert-base", Batch: 1, Seq: 128},
	multiCores: 4,
	zoo: []modelzoo.Spec{
		{Model: "resnet18", Batch: 1},
		{Model: "resnet50", Batch: 1},
		{Model: "bert-base", Batch: 1, Seq: 64},
		{Model: "bert-base", Batch: 1, Seq: 128},
		{Model: "bert-large", Batch: 1, Seq: 128},
		{Model: "decoder-small", Batch: 4, Ctx: 256, Prefill: true},
		{Model: "decoder-base", Batch: 1, Ctx: 128},
		{Model: "mlp-train", Batch: 8},
	},
	setupReps: 15, heavySetupReps: 3,

	serveModel: "decoder-small", serveReqs: 8, servePrompt: 16, serveGen: 16,
	serveRate: 2000, serveMaxBatch: 4, serveKVBlock: 64,
	figN: 512,

	jobsCheap:   fullCheapJobs(),
	jobsHeavy:   fullHeavyJobs(),
	heavyRepeat: 2,
	coldCheap:   coldGemms(136, 504, "", 128, 192, 256, 320, 384, 512),
	coldHeavy:   coldDecoders("decoder-small", 8, []int{64, 128, 192, 256, 320, 384, 448, 512}, fullHeavyJobs()),

	coldCheapPerBlock: 3, coldHeavyPerBlk: 3,
}

var quickProfile = &profile{
	name:       "quick",
	npu:        "small",
	simConv:    modelzoo.Spec{Model: "mlp", Batch: 2},
	simDense:   modelzoo.Spec{Model: "decoder-tiny", Batch: 1, Ctx: 16},
	multiCores: 2,
	zoo: []modelzoo.Spec{
		{Model: "gemm", N: 64},
		{Model: "mlp", Batch: 1},
	},
	setupReps: 2, heavySetupReps: 1,

	serveModel: "decoder-tiny", serveReqs: 2, servePrompt: 8, serveGen: 3,
	serveRate: 200000, serveMaxBatch: 2, serveKVBlock: 16,
	figN: 32,

	jobsCheap:   []jobSpec{{Model: "gemm", N: 32, NPU: "small"}, {Model: "gemm", N: 64, NPU: "small"}},
	jobsHeavy:   []jobSpec{{Model: "mlp", Batch: 1, NPU: "small"}},
	heavyRepeat: 2,
	coldCheap:   coldGemms(8, 80, "small", 32, 64),
	coldHeavy:   []jobSpec{{Model: "mlp", Batch: 2, NPU: "small"}, {Model: "mlp", Batch: 3, NPU: "small"}, {Model: "mlp", Batch: 4, NPU: "small"}},

	coldCheapPerBlock: 1, coldHeavyPerBlk: 1,
}
