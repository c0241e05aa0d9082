// Multitenancy: the §5.2-style scenario as a library user would script it —
// a load generator produces request streams for two models, the scheduler
// batches and places them on a two-core NPU under temporal and spatial
// sharing, and per-model latency statistics come out the other end.
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/togsim"
	"repro/internal/topo"
)

func main() {
	cfg := npu.TPUv3Config()
	cfg.Cores = 2
	opts := compiler.DefaultOptions()

	// The TOG cache (§3.10), now the service's content-addressed compile
	// cache: each (model, batch, NPU, options) compiles once, and because
	// the cache outlives a single Schedule call, the spatial-policy pass
	// below reuses every compilation from the temporal pass.
	cache := service.NewCache()
	compile := service.SchedCompileFn(cache, cfg, opts,
		func(model string, batch int) (*graph.Graph, error) {
			var m *nn.Model
			switch model {
			case "mlp-small":
				m = nn.MLP(nn.MLPConfig{Batch: batch, In: 784, Hidden: 256, Classes: 10})
			case "mlp-wide":
				m = nn.MLP(nn.MLPConfig{Batch: batch, In: 784, Hidden: 1024, Classes: 10})
			default:
				return nil, fmt.Errorf("unknown model %q", model)
			}
			return m.Graph, nil
		})

	// Load generator: two request streams with Poisson arrivals.
	// High enough load that queues form and the sharing policy matters.
	reqs := sched.Generate(42, []sched.Profile{
		{Model: "mlp-small", Count: 16, MeanGap: 6_000, Arrivals: sched.Poisson},
		{Model: "mlp-wide", Count: 8, MeanGap: 15_000, Arrivals: sched.Poisson},
	})
	batches := sched.Batch(reqs, 8_000, 4)
	fmt.Printf("%d requests -> %d batches\n", len(reqs), len(batches))

	for _, policy := range []sched.Policy{sched.Temporal, sched.Spatial} {
		jobs, err := sched.Schedule(batches, cfg.Cores, policy, compile)
		if err != nil {
			log.Fatal(err)
		}
		res, _, err := core.NewStack(cfg, togsim.SimpleNet, dram.FRFCFS, topo.Config{}).Run(jobs)
		if err != nil {
			log.Fatal(err)
		}
		name := "temporal"
		if policy == sched.Spatial {
			name = "spatial"
		}
		fmt.Printf("\n%s sharing: makespan %d cycles (%.3f ms)\n",
			name, res.Cycles, float64(res.Cycles)/float64(cfg.FreqMHz)/1e3)
		for _, l := range sched.Summarize(jobs, res.Jobs) {
			fmt.Printf("  %-10s %2d batches, latency mean %.0f / p95 %d / max %d cycles\n",
				l.Model, l.Count, l.MeanCycles, l.P95Cycles, l.MaxCycles)
		}
	}
	hits, misses := cache.Stats()
	fmt.Printf("\ncompile cache: %d hits / %d misses across both policies\n", hits, misses)
}
