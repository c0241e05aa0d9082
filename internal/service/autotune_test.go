package service

import (
	"reflect"
	"testing"
)

// The sweep is never worse than the heuristic (cap 0, which a plain run of
// the spec already simulated), a fresh service picks the same winner with
// the same result, and a repeated sweep is all result hits: it measures no
// kernel.
func TestAutoTuneNeverWorseThanDefault(t *testing.T) {
	spec := JobSpec{Model: "gemm", N: 96, NPU: "small"}
	svc := New(Config{})
	def, err := svc.Simulate(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt, tuned, err := svc.AutoTune(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Cycles > def.Cycles {
		t.Fatalf("autotune (MaxMt=%d, %d cycles) worse than default (%d cycles)", mt, tuned.Cycles, def.Cycles)
	}
	if st := svc.Stats(); st.ResultHits != 1 {
		t.Fatalf("%d result hits, want 1: the heuristic's candidate repeats the plain run", st.ResultHits)
	}

	mt2, fresh, err := New(Config{}).AutoTune(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if mt2 != mt || !reflect.DeepEqual(fresh.Canonical(), tuned.Canonical()) {
		t.Fatalf("autotune nondeterministic: MaxMt %d (%d cycles) vs %d (%d cycles)", mt, tuned.Cycles, mt2, fresh.Cycles)
	}

	measured := svc.Cache().Measured()
	if _, _, err := svc.AutoTune(spec, false); err != nil {
		t.Fatal(err)
	}
	if n := svc.Cache().Measured() - measured; n != 0 {
		t.Fatalf("a repeated sweep measured %d kernels, want 0", n)
	}
}

// A candidate that fails is skipped, and a sweep whose every candidate
// fails is an error.
func TestAutoTuneSkipsInfeasibleCandidates(t *testing.T) {
	svc := New(Config{})
	spec := JobSpec{Model: "gemm", N: 96, NPU: "small"}
	if _, _, err := svc.AutoTune(spec, true); err != nil {
		t.Fatal(err)
	}
	spec.MaxCycles = 10
	if _, _, err := svc.AutoTune(spec, false); err == nil {
		t.Fatal("want an error when every candidate exceeds max_cycles")
	}
}
