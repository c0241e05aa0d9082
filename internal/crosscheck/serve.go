package crosscheck

import (
	"fmt"
	"reflect"

	"repro/internal/compiler"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/obs/report"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// CheckServe is the serve-determinism oracle: each seeded serving scenario
// (Poisson arrivals, continuous batching, prefill + decode iterations)
// must produce a bit-identical report when replayed with the same seed,
// and again when replayed with a recording probe attached. A probed run
// simulates every iteration while an unprobed one replays repeated
// shapes, so the third leg is the memo-off ≡ memo-on check. Each run gets
// a fresh compile cache, so cache-hit accounting is part of the
// comparison: the prefill-per-shape / decode-replay behaviour must
// reproduce too. Two scenarios run: the single-package baseline with fixed
// prompts, and a pkg2 tensor-parallel scenario with per-request context
// lengths drawn from a seeded uniform distribution (collective timing and
// ctx-dist draws join the determinism contract).
func CheckServe(seed int64) error {
	for _, sc := range []struct {
		name string
		topo bool
	}{
		{"baseline", false},
		{"pkg2-tensor+ctx-dist", true},
	} {
		base, err := runServeScenario(seed, sc.topo, nil)
		if err != nil {
			return fmt.Errorf("serve scenario %s failed: %w", sc.name, err)
		}
		for _, probe := range []obs.Probe{nil, obs.NewTraceWriter()} {
			again, err := runServeScenario(seed, sc.topo, probe)
			if err != nil {
				return fmt.Errorf("serve replay %s (probed %v) failed: %w", sc.name, probe != nil, err)
			}
			if !reflect.DeepEqual(base, again) {
				return fmt.Errorf("serve-determinism (%s, probed %v): same seed %d, different reports:\nfirst:  %+v\nsecond: %+v",
					sc.name, probe != nil, seed, base, again)
			}
		}
	}
	return nil
}

// runServeScenario replays a standing serving scenario with a fresh
// service compile cache (the service's content-addressed cache semantics,
// minus persistence). With topoVariant the decoder serves tensor-parallel
// over two packages and prompt lengths come from a seeded uniform
// distribution. A non-nil probe records the run's trace.
func runServeScenario(seed int64, topoVariant bool, probe obs.Probe) (report.ServeReport, error) {
	cfg := npu.SmallConfig()
	cache := service.NewCache()
	compile := func(spec modelzoo.Spec) (*compiler.Compiled, bool, error) {
		c, _, hit, err := cache.CompileSpec(spec, cfg, compiler.DefaultOptions())
		return c, hit, err
	}
	sc := serve.Config{
		Model:    "decoder-tiny",
		NPU:      cfg,
		Net:      togsim.SimpleNet,
		MaxBatch: 2,
		KVBlock:  16,
		Compile:  compile,
		Probe:    probe,
	}
	reqs := serve.PoissonTrace(seed, 3, 2e5, cfg.FreqMHz, 4, 4)
	if topoVariant {
		tc, err := topo.Preset("pkg2", cfg.Mem)
		if err != nil {
			return report.ServeReport{}, err
		}
		sc.Topo, sc.Parallel = tc, "tensor"
		dist, err := serve.ParseCtxDist("uniform:3,8")
		if err != nil {
			return report.ServeReport{}, err
		}
		serve.ApplyCtxDist(reqs, dist, seed)
	}
	return serve.Run(sc, reqs)
}
