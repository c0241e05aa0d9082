package crosscheck

import (
	"reflect"
	"testing"

	"repro/internal/service"
)

// svcPool is the repeated job pool of the benchmark's svc.mix-closed and
// fleet.mix-closed workloads (bench/jobs.go).
func svcPool() []service.JobSpec {
	pool := []service.JobSpec{
		{Model: "gemm", N: 128}, {Model: "gemm", N: 192}, {Model: "gemm", N: 256},
		{Model: "gemm", N: 320}, {Model: "gemm", N: 384}, {Model: "gemm", N: 512},
		{Model: "gemm", N: 256, Net: "cn"},
		{Model: "mlp", Batch: 1}, {Model: "mlp", Batch: 8}, {Model: "mlp", Batch: 32},
		{Model: "decoder-small", Batch: 1, Ctx: 64, Topology: "pkg2", Parallel: "tensor"},
	}
	for _, b := range []int{1, 2, 4} {
		for _, ctx := range []int{64, 128, 256} {
			pool = append(pool, service.JobSpec{Model: "decoder-small", Batch: b, Ctx: ctx})
		}
	}
	return pool
}

// A result-cache hit is what a service that never saw the spec computes:
// every spec of the benchmark pool and of the fleet oracle's batch, serving
// spec included, runs twice on one service (the second run a hit) and once
// on a fresh service per spec, and the canonical results agree.
func TestResultHitMatchesFreshService(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the benchmark's job pool three times")
	}
	specs := append(svcPool(), fleetSpecs(3)...)
	warm := service.New(service.Config{})
	for i, spec := range specs {
		first, err := warm.Simulate(spec, nil)
		if err != nil {
			t.Fatalf("spec %d %+v: %v", i, spec, err)
		}
		again, err := warm.Simulate(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !again.ResultHit {
			t.Fatalf("spec %d %+v: second run is not a result hit", i, spec)
		}
		fresh, err := service.New(service.Config{}).Simulate(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.ResultHit || !reflect.DeepEqual(again.Canonical(), fresh.Canonical()) ||
			!reflect.DeepEqual(first.Canonical(), fresh.Canonical()) {
			t.Fatalf("spec %d %+v: the hit differs from a fresh service's run:\nhit:   %+v\nfresh: %+v",
				i, spec, again.Canonical(), fresh.Canonical())
		}
	}
}
