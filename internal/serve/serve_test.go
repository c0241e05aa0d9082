package serve_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/npu"
	"repro/internal/serve"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// memoCompile is the minimal content-addressed compile path for tests: one
// compiler, results memoized by normalized spec. It mirrors the service
// cache's hit/miss semantics and exposes MeasureCount directly.
type memoCompile struct {
	cfg  npu.Config
	comp *compiler.Compiler
	memo map[string]*compiler.Compiled
}

func newMemoCompile(cfg npu.Config) *memoCompile {
	return &memoCompile{
		cfg:  cfg,
		comp: compiler.New(cfg, compiler.DefaultOptions()),
		memo: map[string]*compiler.Compiled{},
	}
}

func (m *memoCompile) fn(spec modelzoo.Spec) (*compiler.Compiled, bool, error) {
	key := fmt.Sprintf("%+v", spec.Normalize())
	if c, ok := m.memo[key]; ok {
		return c, true, nil
	}
	g, err := modelzoo.BuildFor(spec, m.cfg.Mem)
	if err != nil {
		return nil, false, err
	}
	c, err := m.comp.Compile(g)
	if err != nil {
		return nil, false, err
	}
	m.memo[key] = c
	return c, false, nil
}

func tinyConfig(t *testing.T) (serve.Config, *memoCompile) {
	t.Helper()
	mc := newMemoCompile(npu.SmallConfig())
	return serve.Config{
		Model:    "decoder-tiny",
		NPU:      npu.SmallConfig(),
		Net:      togsim.SimpleNet,
		MaxBatch: 2,
		KVBlock:  16,
		Compile:  mc.fn,
	}, mc
}

func TestPoissonTraceDeterministic(t *testing.T) {
	a := serve.PoissonTrace(42, 16, 1000, 940, 8, 4)
	b := serve.PoissonTrace(42, 16, 1000, 940, 8, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := serve.PoissonTrace(43, 16, 1000, 940, 8, 4)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not monotonic at %d: %d < %d", i, a[i].Arrival, a[i-1].Arrival)
		}
	}
}

func TestServeSingleRequest(t *testing.T) {
	cfg, _ := tinyConfig(t)
	reqs := []serve.Request{{ID: "r0", Arrival: 0, Prompt: 8, Output: 4}}
	rep, err := serve.Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1 || rep.TokensOut != 4 {
		t.Fatalf("requests %d tokens %d", rep.Requests, rep.TokensOut)
	}
	if rep.PrefillRuns != 1 || rep.DecodeSteps != 3 {
		t.Fatalf("prefill %d decode %d (want 1 prefill + 3 decode for 4 tokens)",
			rep.PrefillRuns, rep.DecodeSteps)
	}
	rr := rep.PerRequest[0]
	if rr.FirstToken <= 0 || rr.Finished <= rr.FirstToken {
		t.Fatalf("request timeline not monotonic: first %d finished %d", rr.FirstToken, rr.Finished)
	}
	if rr.TTFTMs <= 0 || rr.TPOTMs <= 0 || rep.TokensPerSec <= 0 {
		t.Fatalf("latencies must be positive: ttft %v tpot %v tok/s %v",
			rr.TTFTMs, rr.TPOTMs, rep.TokensPerSec)
	}
}

// At a fixed (batch, padded-KV) shape only the first decode step compiles:
// every later step reuses the run's artifact, counts as a hit, and the
// compiler measures no new kernels. Hits count reuse inside the run, so a
// compile cache primed with the run's shapes changes nothing in the report.
func TestServeDecodeStepsAreCacheHits(t *testing.T) {
	cfg, mc := tinyConfig(t)
	// One request, 8 generated tokens, KVBlock 16 covers prompt+output:
	// all 7 decode steps share one shape.
	reqs := []serve.Request{{ID: "r0", Arrival: 0, Prompt: 4, Output: 8}}
	unprimed, err := serve.Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}

	// Prime prefill and the first decode shape, then snapshot MeasureCount.
	cfg, mc = tinyConfig(t)
	if _, _, err := mc.fn(modelzoo.Spec{Model: cfg.Model, Batch: 1, Ctx: 4, Prefill: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mc.fn(modelzoo.Spec{Model: cfg.Model, Batch: 1, Ctx: 16}); err != nil {
		t.Fatal(err)
	}
	before := mc.comp.MeasureCount()

	rep, err := serve.Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecodeSteps != 7 || rep.DecodeShapes != 1 {
		t.Fatalf("decode steps %d shapes %d (want 7 steps over 1 shape)", rep.DecodeSteps, rep.DecodeShapes)
	}
	if want := rep.DecodeSteps - int64(rep.DecodeShapes); rep.DecodeHits != want {
		t.Fatalf("decode hits %d of %d steps, want %d: every step past the shape's first", rep.DecodeHits, rep.DecodeSteps, want)
	}
	if !reflect.DeepEqual(rep, unprimed) {
		t.Fatalf("a primed compile cache changed the report:\nprimed:   %+v\nunprimed: %+v", rep, unprimed)
	}
	if got := mc.comp.MeasureCount(); got != before {
		t.Fatalf("MeasureCount grew %d -> %d during replayed decode steps", before, got)
	}
}

func TestServeContinuousBatching(t *testing.T) {
	cfg, _ := tinyConfig(t)
	reqs := []serve.Request{
		{ID: "r0", Arrival: 0, Prompt: 4, Output: 6},
		{ID: "r1", Arrival: 1, Prompt: 4, Output: 6},
		{ID: "r2", Arrival: 2, Prompt: 4, Output: 3},
	}
	rep, err := serve.Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 3 || rep.TokensOut != 15 {
		t.Fatalf("requests %d tokens %d", rep.Requests, rep.TokensOut)
	}
	maxBatch := 0
	for _, s := range rep.Timeline {
		if s.Batch > maxBatch {
			maxBatch = s.Batch
		}
		if s.Batch > cfg.MaxBatch {
			t.Fatalf("batch %d exceeds MaxBatch %d", s.Batch, cfg.MaxBatch)
		}
	}
	if maxBatch < 2 {
		t.Fatalf("overlapping requests never batched together (max batch %d)", maxBatch)
	}
	if rep.AvgBatchOccupancy <= 1 {
		t.Fatalf("avg occupancy %v: continuous batching had no effect", rep.AvgBatchOccupancy)
	}
	for _, rr := range rep.PerRequest {
		if rr.Finished <= rr.ArrivalCycle {
			t.Fatalf("request %s finished before it arrived", rr.ID)
		}
	}
}

// Two runs of the same seeded scenario must produce identical reports —
// the property the serve-determinism crosscheck oracle enforces at scale.
func TestServeDeterministic(t *testing.T) {
	run := func() report1 {
		cfg, _ := tinyConfig(t)
		reqs := serve.PoissonTrace(7, 3, 2e5, cfg.NPU.FreqMHz, 4, 3)
		rep, err := serve.Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return report1{rep.Cycles, rep.TokensOut, rep.TTFTp99Ms, rep.TPOTp50Ms}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic serving run: %+v vs %+v", a, b)
	}
}

type report1 struct {
	Cycles  int64
	Tokens  int64
	TTFTp99 float64
	TPOTp50 float64
}

// Prompt lengths drawn from a seeded distribution are deterministic, stay
// within bounds, and never perturb the arrival process.
func TestCtxDistSeededDraws(t *testing.T) {
	if d, err := serve.ParseCtxDist(""); err != nil || d != nil {
		t.Fatalf("empty dist should be fixed prompts, got %v, %v", d, err)
	}
	for _, bad := range []string{"uniform:8", "uniform:0,4", "uniform:9,3", "zipf:1,2"} {
		if _, err := serve.ParseCtxDist(bad); err == nil {
			t.Fatalf("ParseCtxDist(%q) should fail", bad)
		}
	}
	d, err := serve.ParseCtxDist("uniform:4,12")
	if err != nil {
		t.Fatal(err)
	}
	a := serve.PoissonTrace(7, 16, 2e5, 940, 8, 3)
	b := serve.PoissonTrace(7, 16, 2e5, 940, 8, 3)
	serve.ApplyCtxDist(a, d, 7)
	serve.ApplyCtxDist(b, d, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and distribution must yield the same trace")
	}
	varied := false
	for i, r := range a {
		if r.Prompt < 4 || r.Prompt > 12 {
			t.Fatalf("request %d prompt %d outside [4,12]", i, r.Prompt)
		}
		if r.Prompt != 8 {
			varied = true
		}
		if r.Arrival != b[i].Arrival {
			t.Fatal("distribution draw perturbed arrivals")
		}
	}
	if !varied {
		t.Fatal("uniform:4,12 never varied the prompt length")
	}
}

// Serving a tensor-parallel decoder over two packages: every iteration
// runs one rank per package, the run completes, and the seeded scenario
// reproduces exactly — the determinism the oracle checks, now through the
// topology fabric.
func TestServeTensorParallelDeterministic(t *testing.T) {
	run := func() report1 {
		cfg, _ := tinyConfig(t)
		tc, err := topo.Preset("pkg2", cfg.NPU.Mem)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topo, cfg.Parallel = tc, "tensor"
		reqs := serve.PoissonTrace(5, 2, 2e5, cfg.NPU.FreqMHz, 4, 2)
		rep, err := serve.Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests != 2 || rep.TokensOut != 4 {
			t.Fatalf("serving run lost requests: %+v", rep)
		}
		return report1{rep.Cycles, rep.TokensOut, rep.TTFTp99Ms, rep.TPOTp50Ms}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic tensor-parallel serving: %+v vs %+v", a, b)
	}
}
