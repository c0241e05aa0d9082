package service

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/service/modelzoo"
)

// TestRunILSCountsPinned pins the per-instruction ILS pass on the specs
// `ptsim -mode ils` resolves: the dynamic instructions and kernel instances
// are a function of how the TOG walker expands the loops, so a walker that
// visits the wrong instances moves them.
func TestRunILSCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name             string
		spec             JobSpec
		instrs, kernRuns int64
	}{
		{"gemm64-small", JobSpec{Model: "gemm", N: 64, NPU: "small"}, 34624, 64},
		{"gemm256-tpuv3", JobSpec{Model: "gemm", N: 256}, 8788, 4},
		{"decoder-tiny-small", JobSpec{Model: "decoder-tiny", Ctx: 128, NPU: "small"}, 25318, 466},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			g, err := modelzoo.BuildRankGraph(r.Spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := compiler.New(r.Cfg, r.Opts).Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			ils, err := compiler.RunILS(comp, r.Cfg.Core)
			if err != nil {
				t.Fatal(err)
			}
			if ils.Instrs != tc.instrs || ils.KernelRuns != tc.kernRuns {
				t.Fatalf("ILS pass: %d instructions across %d kernel instances, want %d across %d",
					ils.Instrs, ils.KernelRuns, tc.instrs, tc.kernRuns)
			}
		})
	}
}
