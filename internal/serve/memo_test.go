package serve

import (
	"fmt"
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
// caches by spec and counts its calls.
func memoState(t *testing.T) (*runState, *int) {
	t.Helper()
	cfg := npu.SmallConfig()
	comp := compiler.New(cfg, compiler.DefaultOptions())
	cache := map[string]*compiler.Compiled{}
	calls := 0
	sc := Config{
		Model:    "decoder-tiny",
		NPU:      cfg,
		Net:      togsim.SimpleNet,
		MaxBatch: 2,
		KVBlock:  16,
		Compile: func(spec modelzoo.Spec) (*compiler.Compiled, bool, error) {
			calls++
			key := fmt.Sprintf("%+v", spec.Normalize())
			if c, ok := cache[key]; ok {
				return c, true, nil
			}
			g, err := modelzoo.BuildFor(spec, cfg.Mem)
			if err != nil {
				return nil, false, err
			}
			c, err := comp.Compile(g)
			if err != nil {
				return nil, false, err
			}
			cache[key] = c
			return c, false, nil
		},
	}
	sc.defaults()
	return newRunState(sc), &calls
}

// A repeated shape is compiled and simulated once: the second call replays
// the stored cycles and activity, reuses the run's artifact without asking
// the compile path again (still a hit), and adds no memo entry.
func TestIterateMemoReplaysShape(t *testing.T) {
	s, calls := memoState(t)
	spec := modelzoo.Spec{Model: "decoder-tiny", Batch: 1, Ctx: 16}
	if _, _, err := s.cfg.Compile(spec); err != nil { // both iterations hit
		t.Fatal(err)
	}
	c1, a1, h1, err := s.iterate(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, a2, h2, err := s.iterate(spec, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 || c1 != c2 || a1 != a2 || h1 != h2 || !h1 {
		t.Fatalf("replayed iteration differs: (%d, %+v, %v) vs (%d, %+v, %v)", c1, a1, h1, c2, a2, h2)
	}
	if len(s.sims) != 1 || len(s.comps) != 1 {
		t.Fatalf("memo holds %d outcomes and %d artifacts after one shape twice, want 1 each", len(s.sims), len(s.comps))
	}
	if *calls != 2 {
		t.Fatalf("compile called %d times, want 2 (priming + the first iteration)", *calls)
	}
}

// The memo keys on the whole spec: a prefill and a decode of the same
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
		if _, _, _, err := s.iterate(spec, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.sims) != 3 {
		t.Fatalf("memo holds %d entries for 3 distinct specs, want 3", len(s.sims))
	}

	tp, _ := memoState(t)
	tc, err := topo.Preset("pkg2", tp.cfg.NPU.Mem)
	if err != nil {
		t.Fatal(err)
	}
	tp.cfg.Topo, tp.cfg.Parallel = tc, "tensor"
	if _, _, _, err := tp.iterate(decode, 0); err != nil {
		t.Fatal(err)
	}
	filled := decode
	filled.Topology, filled.Parallel = tc.Name, "tensor"
	if _, ok := tp.sims[filled]; !ok || len(tp.sims) != 1 {
		t.Fatalf("pkg2 memo keys %v, want only the topology-filled spec %+v", tp.sims, filled)
	}
}

// A probed run neither reads nor fills the memo: every iteration is
// simulated, so the probe sees spans from both calls.
func TestIterateMemoBypassedByProbe(t *testing.T) {
	s, _ := memoState(t)
	p := &spanCounter{}
	s.cfg.Probe = p
	spec := modelzoo.Spec{Model: "decoder-tiny", Batch: 1, Ctx: 16}
	c1, _, _, err := s.iterate(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := p.spans
	c2, _, _, err := s.iterate(spec, c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.sims) != 0 {
		t.Fatalf("probed run stored %d memo entries, want 0", len(s.sims))
	}
	if first == 0 || p.spans != 2*first || c1 != c2 {
		t.Fatalf("probe saw %d spans after the first call and %d after the second (cycles %d, %d); want every call simulated",
			first, p.spans, c1, c2)
	}
}

// Over a whole seeded run with repeated shapes, the engine runs once per
// distinct shape: memo entries equal PrefillShapes + DecodeShapes.
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
	if len(s.sims) != shapes {
		t.Fatalf("memo holds %d entries, want PrefillShapes+DecodeShapes = %d", len(s.sims), shapes)
	}
}
