package service

import (
	"repro/internal/compiler"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/service/cache"
	"repro/internal/service/modelzoo"
)

// SchedCompileFn adapts the content-addressed compile cache to the
// multi-tenant scheduler: the returned sched.CompileFn keys each
// (model, batch) by the same canonical hash the service uses, so scheduler
// sweeps (e.g. temporal vs spatial policy over the same request stream)
// and daemon jobs share one cache and each unique configuration compiles
// exactly once per process. build maps scheduler model names to graphs;
// pass nil to use the built-in model zoo.
func SchedCompileFn(cc *Cache, cfg npu.Config, opts compiler.Options,
	build func(model string, batch int) (*graph.Graph, error)) sched.CompileFn {
	if build == nil {
		build = func(model string, batch int) (*graph.Graph, error) {
			return modelzoo.BuildGraph(modelzoo.Spec{Model: model, Batch: batch})
		}
	}
	return func(model string, batch int) (sched.CompiledJob, error) {
		// Scheduler model names are free-form (callers may map arbitrary
		// names to graphs), so the name itself joins the hash alongside
		// the shape and machine.
		key := cache.CanonicalHash(struct {
			Model string
			Batch int
		}{model, batch}, cfg, opts)
		comp, _, err := cc.Compile(key, cfg, opts, func() (*graph.Graph, error) {
			return build(model, batch)
		})
		if err != nil {
			return nil, err
		}
		return comp, nil
	}
}
