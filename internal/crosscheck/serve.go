package crosscheck

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/service"
)

// CheckServe is the serve-determinism oracle: each seeded serving scenario
// (Poisson arrivals, continuous batching, prefill + decode iterations),
// submitted as a service.JobSpec, must produce a bit-identical canonical
// result when replayed with the same seed, again when replayed with a
// recording probe attached, and again on a warmed service. A probed run
// simulates every iteration while an unprobed one replays repeated shapes,
// so the probed leg is the memo-off ≡ memo-on check. The warmed service
// has already run the scenario at another seed and plain prefill/decode
// jobs at the scenario's iteration shapes, so its compile cache holds them:
// a serving report must not depend on what ran before it. The other legs
// each run on a fresh service, whose result cache would otherwise answer
// the repeat. Two scenarios run: the single-package baseline with fixed
// prompts, and a pkg2 tensor-parallel scenario with per-request context
// lengths drawn from a seeded uniform distribution (collective timing and
// ctx-dist draws join the determinism contract).
func CheckServe(seed int64) error {
	baseline := service.JobSpec{Model: "decoder-tiny", NPU: "small",
		Serve: &service.ServeSpec{Requests: 3, RatePerSec: 2e5, Seed: seed, Prompt: 4, Output: 4, MaxBatch: 2, KVBlock: 16}}
	pkg2, drawn := baseline, *baseline.Serve
	drawn.CtxDist = "uniform:3,8"
	pkg2.Topology, pkg2.Parallel, pkg2.Serve = "pkg2", "tensor", &drawn
	for _, sc := range []struct {
		name string
		spec service.JobSpec
	}{
		{"baseline", baseline},
		{"pkg2-tensor+ctx-dist", pkg2},
	} {
		base, err := service.New(service.Config{}).Simulate(sc.spec, nil)
		if err != nil {
			return fmt.Errorf("serve scenario %s failed: %w", sc.name, err)
		}
		want := base.Canonical()
		for _, leg := range []string{"replay", "probed", "warmed"} {
			var again service.JobResult
			switch leg {
			case "replay":
				again, err = service.New(service.Config{}).Simulate(sc.spec, nil)
			case "probed":
				again, err = service.New(service.Config{}).Simulate(sc.spec, obs.NewTraceWriter())
			case "warmed":
				again, err = warmedServe(sc.spec)
			}
			if err != nil {
				return fmt.Errorf("serve %s %s failed: %w", leg, sc.name, err)
			}
			if got := again.Canonical(); !reflect.DeepEqual(want, got) {
				w, _ := json.Marshal(want)
				g, _ := json.Marshal(got)
				return fmt.Errorf("serve-determinism (%s, %s): same seed %d, different results:\nfresh: %s\n%s: %s",
					sc.name, leg, seed, w, leg, g)
			}
		}
	}
	return nil
}

// warmedServe runs spec on a service that has already run it at another
// seed and a plain job at every iteration shape its trace can reach: a
// prefill pass at each prompt length it can draw, and a decode step at each
// batch size on the first padded KV length. The result must come from a
// simulation, not from the result cache.
func warmedServe(spec service.JobSpec) (service.JobResult, error) {
	r, err := spec.Resolve()
	if err != nil {
		return service.JobResult{}, err
	}
	sv, reseeded := *r.Serve, *r.Serve
	reseeded.Seed++
	other, plain := spec, spec
	other.Serve, plain.Serve = &reseeded, nil
	warmers := []service.JobSpec{other}
	lo, hi := sv.Prompt, sv.Prompt
	if d, _ := serve.ParseCtxDist(sv.CtxDist); d != nil {
		lo, hi = d.Lo, d.Hi
	}
	for p := lo; p <= hi; p++ {
		plain.Batch, plain.Ctx, plain.Prefill = 1, p, true
		warmers = append(warmers, plain)
	}
	for b := 1; b <= sv.MaxBatch; b++ {
		plain.Batch, plain.Ctx, plain.Prefill = b, sv.KVBlock, false
		warmers = append(warmers, plain)
	}
	svc := service.New(service.Config{})
	for _, w := range warmers {
		if _, err := svc.Simulate(w, nil); err != nil {
			return service.JobResult{}, fmt.Errorf("warming with %+v: %w", w, err)
		}
	}
	res, err := svc.Simulate(spec, nil)
	if err == nil && res.ResultHit {
		err = fmt.Errorf("the warmed run was answered from the result cache")
	}
	return res, err
}
