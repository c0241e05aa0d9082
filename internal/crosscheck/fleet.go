package crosscheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"

	"repro/internal/fleet"
	"repro/internal/service"
)

// CheckFleet is the fleet-determinism oracle: a seeded batch of mixed jobs
// — gemm/mlp shapes, a seeded decoder serving scenario behind plain jobs at
// its iteration shapes, a multi-package tensor-parallel topology job,
// spread over tenants and priorities — runs once through a single
// in-process service and once through a 3-member local fleet
// (consistent-hash routing, peer cache tiers, weighted-fair dispatch).
// Every JobResult must be bit-identical after canonicalization (host-time
// fields zeroed): where a job ran must never change what it computed.
//
// With faultFleet set, the coordinator's ResultFault hook corrupts exactly
// one member response (+1 cycle) and the check SUCCEEDS only if the
// comparison catches it — the proof the oracle has teeth.
func CheckFleet(seed int64, faultFleet bool) error {
	specs := fleetSpecs(seed)

	single := service.New(service.Config{Workers: 2})
	single.Start()
	defer single.Close()
	want := make([]service.JobResult, len(specs))
	for i, spec := range specs {
		j, err := single.Submit(spec)
		if err != nil {
			return fmt.Errorf("fleet oracle: single-node submit %d: %w", i, err)
		}
		fin, err := single.Wait(j.ID)
		if err != nil {
			return fmt.Errorf("fleet oracle: single-node wait %d: %w", i, err)
		}
		if fin.State != service.StateDone {
			return fmt.Errorf("fleet oracle: single-node job %d failed: %s", i, fin.Error)
		}
		want[i] = fin.Result.Canonical()
	}

	var fault func(member string, res *service.JobResult)
	if faultFleet {
		var once sync.Once
		fault = func(member string, res *service.JobResult) {
			// Corrupt exactly one member response by the smallest possible
			// drift; the per-job comparison below must catch it.
			once.Do(func() { res.Cycles++ })
		}
	}
	fl, err := fleet.StartLocal(fleet.LocalOptions{N: 3, Workers: 1, ResultFault: fault})
	if err != nil {
		return fmt.Errorf("fleet oracle: start local fleet: %w", err)
	}
	defer fl.Close()

	ids := make([]string, len(specs))
	for i, spec := range specs {
		j, err := fl.Coord.Submit(spec)
		if err != nil {
			return fmt.Errorf("fleet oracle: fleet submit %d: %w", i, err)
		}
		ids[i] = j.ID
	}
	divergences := 0
	var firstDiff string
	for i, id := range ids {
		fin, err := fl.Coord.Wait(id)
		if err != nil {
			return fmt.Errorf("fleet oracle: fleet wait %d: %w", i, err)
		}
		if fin.State != service.StateDone {
			return fmt.Errorf("fleet oracle: fleet job %d failed on member %s: %s", i, fin.Member, fin.Error)
		}
		if got := fin.Result.Canonical(); !reflect.DeepEqual(got, want[i]) {
			divergences++
			if firstDiff == "" {
				firstDiff = fmt.Sprintf("job %d (key %s, member %s, attempts %d):\nfleet:  %s\nsingle: %s",
					i, fin.Key, fin.Member, fin.Attempts, resultJSON(got), resultJSON(want[i]))
			}
		}
	}
	if st := fl.Coord.Stats(); st.DuplicateCompletions != 0 {
		return fmt.Errorf("fleet oracle: %d duplicate completions", st.DuplicateCompletions)
	}

	if faultFleet {
		if divergences == 0 {
			return fmt.Errorf("fleet oracle: injected result fault escaped — %d jobs compared equal; the comparison has no teeth", len(specs))
		}
		return nil // self-test passed: the corrupt response was caught
	}
	if divergences > 0 {
		return fmt.Errorf("fleet-determinism: %d of %d jobs differ between 1-node and 3-node runs; first:\n%s",
			divergences, len(specs), firstDiff)
	}
	return nil
}

// fleetSpecs generates the oracle's seeded mixed batch: every job class the
// service supports, across three tenants and two priorities.
func fleetSpecs(seed int64) []service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"alpha", "beta", "gamma"}
	specs := make([]service.JobSpec, 0, 10)
	for i := 0; i < 5; i++ {
		specs = append(specs, service.JobSpec{
			Model: "gemm", N: 24 + 8*rng.Intn(6), NPU: "small",
			Tenant: tenants[rng.Intn(len(tenants))], Priority: rng.Intn(2),
		})
	}
	specs = append(specs, service.JobSpec{
		Model: "mlp", Batch: 1 + rng.Intn(2), NPU: "small",
		Tenant: tenants[rng.Intn(len(tenants))],
	})
	// Plain jobs at the serving scenario's prefill shape and first decode
	// shape, ahead of it: wherever the serving job lands, the compile cache
	// may already hold its shapes, and its report must not show it.
	specs = append(specs,
		service.JobSpec{Model: "decoder-tiny", Ctx: 4, Prefill: true, NPU: "small", Tenant: "beta"},
		service.JobSpec{Model: "decoder-tiny", Ctx: 16, NPU: "small", Tenant: "beta"})
	// A seeded continuous-batching decoder scenario: the serve scheduler,
	// KV cache, and per-step shape reuse all join the contract.
	specs = append(specs, service.JobSpec{
		Model: "decoder-tiny", NPU: "small", Tenant: "beta",
		Serve: &service.ServeSpec{Requests: 2, Prompt: 4, Output: 4,
			MaxBatch: 2, KVBlock: 16, Seed: 1 + rng.Int63n(64)},
	})
	// A multi-package tensor-parallel decode job: collective timing on the
	// pkg2 fabric joins the contract.
	specs = append(specs, service.JobSpec{
		Model: "decoder-tiny", Ctx: 8, NPU: "small", Topology: "pkg2", Parallel: "tensor",
		Tenant: "gamma", Priority: 1,
	})
	return specs
}
