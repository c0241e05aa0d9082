package serve

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// spanCounter is a probe that counts the spans it receives.
type spanCounter struct{ spans int }

func (c *spanCounter) TrackName(obs.Track, string, string)                {}
func (c *spanCounter) Span(obs.Track, string, int64, int64, obs.SpanInfo) { c.spans++ }
func (c *spanCounter) Counter(obs.Track, string, int64, float64)          {}

// memoState returns a defaulted tiny-decoder run state whose compile path
// counts its calls (it caches nothing: the run keeps its own artifacts).
func memoState(t *testing.T) (*runState, *int) {
	t.Helper()
	cfg := npu.SmallConfig()
	comp := compiler.New(cfg, compiler.DefaultOptions())
	calls := 0
	sc := Config{
		Model:    "decoder-tiny",
		NPU:      cfg,
		Net:      togsim.SimpleNet,
		MaxBatch: 2,
		KVBlock:  16,
		Compile: func(spec modelzoo.Spec) (*compiler.Compiled, bool, error) {
			calls++
			g, err := modelzoo.BuildFor(spec, cfg.Mem)
			if err != nil {
				return nil, false, err
			}
			c, err := comp.Compile(g)
			return c, false, err
		},
	}
	sc.defaults()
	return newRunState(sc), &calls
}

// A repeated shape is compiled and simulated once: the second call replays
// the stored cycles, reuses the run's artifact without asking the compile
// path again, and adds no table entry.
func TestIterateMemoReplaysShape(t *testing.T) {
	s, calls := memoState(t)
	spec := modelzoo.Spec{Model: "decoder-tiny", Batch: 1, Ctx: 16}
	c1, err := s.iterate(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.iterate(spec, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 || c1 != c2 {
		t.Fatalf("replayed iteration took %d cycles, the first %d", c2, c1)
	}
	sh := s.shapes[spec]
	if len(s.shapes) != 1 || sh == nil || sh.runs != 2 {
		t.Fatalf("table holds %d shapes after one shape twice, want 1 with 2 runs", len(s.shapes))
	}
	want := sh.once
	want.Add(sh.once)
	if sh.act != want {
		t.Fatalf("shape activity %+v, want twice one iteration's %+v", sh.act, sh.once)
	}
	if *calls != 1 {
		t.Fatalf("compile called %d times, want 1 (the first iteration)", *calls)
	}
}

// The table keys on the whole spec: a prefill and a decode of the same
// context are different shapes, and so are specs that differ only in
// topology or strategy. On a multi-package run the key is the spec after
// the run's topology is filled in.
func TestIterateMemoKeys(t *testing.T) {
	s, _ := memoState(t)
	decode := modelzoo.Spec{Model: "decoder-tiny", Batch: 1, Ctx: 16}
	prefill := decode
	prefill.Prefill = true
	placed := decode
	placed.Topology, placed.Parallel = "single", "none"
	for _, spec := range []modelzoo.Spec{decode, prefill, placed} {
		if _, err := s.iterate(spec, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.shapes) != 3 {
		t.Fatalf("table holds %d entries for 3 distinct specs, want 3", len(s.shapes))
	}

	tp, _ := memoState(t)
	tc, err := topo.Preset("pkg2", tp.cfg.NPU.Mem)
	if err != nil {
		t.Fatal(err)
	}
	tp.cfg.Topo, tp.cfg.Parallel = tc, "tensor"
	if _, err := tp.iterate(decode, 0); err != nil {
		t.Fatal(err)
	}
	filled := decode
	filled.Topology, filled.Parallel = tc.Name, "tensor"
	if _, ok := tp.shapes[filled]; !ok || len(tp.shapes) != 1 {
		t.Fatalf("pkg2 table keys %v, want only the topology-filled spec %+v", tp.shapes, filled)
	}
}

// A probed run never replays: every iteration is simulated, so the probe
// sees spans from both calls, while the table still counts one shape.
func TestIterateMemoBypassedByProbe(t *testing.T) {
	s, calls := memoState(t)
	p := &spanCounter{}
	s.cfg.Probe = p
	spec := modelzoo.Spec{Model: "decoder-tiny", Batch: 1, Ctx: 16}
	c1, err := s.iterate(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := p.spans
	c2, err := s.iterate(spec, c1)
	if err != nil {
		t.Fatal(err)
	}
	if first == 0 || p.spans != 2*first || c1 != c2 {
		t.Fatalf("probe saw %d spans after the first call and %d after the second (cycles %d, %d); want every call simulated",
			first, p.spans, c1, c2)
	}
	if len(s.shapes) != 1 || s.shapes[spec].runs != 2 || *calls != 1 {
		t.Fatalf("probed run: %d shapes, %d compile calls; want 1 shape with 2 runs compiled once", len(s.shapes), *calls)
	}
}

// Over a whole seeded run with repeated shapes, the engine runs once per
// distinct shape: table entries equal PrefillShapes + DecodeShapes, and
// every other iteration counts as a hit.
func TestRunMemoOneEntryPerShape(t *testing.T) {
	s, _ := memoState(t)
	reqs := PoissonTrace(3, 4, 2e5, s.cfg.NPU.FreqMHz, 4, 6)
	ApplyCtxDist(reqs, &CtxDist{Lo: 3, Hi: 6}, 3)
	rep, err := s.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	runs := rep.PrefillRuns + rep.DecodeSteps
	shapes := rep.PrefillShapes + rep.DecodeShapes
	if int64(shapes) >= runs {
		t.Fatalf("degenerate trace: %d iterations over %d shapes never repeats", runs, shapes)
	}
	if len(s.shapes) != shapes {
		t.Fatalf("table holds %d entries, want PrefillShapes+DecodeShapes = %d", len(s.shapes), shapes)
	}
	if hits := rep.PrefillHits + rep.DecodeHits; hits != runs-int64(shapes) {
		t.Fatalf("%d hits over %d iterations and %d shapes, want iterations - shapes", hits, runs, shapes)
	}
}
