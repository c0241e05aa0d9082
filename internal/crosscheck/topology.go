package crosscheck

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/service/modelzoo"
	"repro/internal/tensor"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// topoCase is one seeded draw of the topology-parallel oracle: a parallel
// strategy, a topology preset it runs on, and a workload shape.
type topoCase struct {
	Index    int
	Strategy parallel.Strategy
	Preset   string
	// Data-parallel workload: an N×N GEMM replicated on every package.
	GemmN int
	// Tensor-parallel workload: a decoder config sharded across packages.
	Model   string
	Batch   int
	Ctx     int
	Prefill bool
	Seed    uint64
}

func (c topoCase) String() string {
	w := fmt.Sprintf("gemm n=%d", c.GemmN)
	if c.Strategy == parallel.Tensor {
		w = fmt.Sprintf("%s batch=%d ctx=%d prefill=%v", c.Model, c.Batch, c.Ctx, c.Prefill)
	}
	return fmt.Sprintf("topo case %d: %s on %s, %s, seed=%d",
		c.Index, c.Strategy, c.Preset, w, c.Seed)
}

// CheckTopology is the topology-parallel oracle: n seeded cases of data-
// and tensor-parallel workloads placed over multi-package topologies, each
// held to two invariants —
//
//  1. Numerics: the lockstep replica execution (graph.ExecuteSharded over
//     the per-rank graphs, collectives combined across ranks) matches the
//     single-core funcsim reference within float32 tolerance on every rank.
//  2. Timing: the event-driven and strict-tick engines produce
//     bit-identical results AND bit-identical per-package fabric stats
//     for the placed ranks, with nonzero link traffic and the expected
//     number of collective regions per rank.
//
// Compiles go through one service compile cache per call, so 200 cases
// reuse a few dozen artifacts.
func CheckTopology(seed uint64, n int) error {
	cache := service.NewCache()
	for i := 0; i < n; i++ {
		c := genTopoCase(seed, i)
		if err := runTopoCase(c, cache); err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
	}
	return nil
}

// genTopoCase draws case i of the stream. Tensor parallelism needs heads
// and FFN divisible by the package count: decoder-tiny (2 heads) shards
// 2 ways on pkg2; decoder-small (4 heads) shards 4 ways on mesh2x2.
func genTopoCase(seed uint64, i int) topoCase {
	rng := rand.New(rand.NewSource(int64(seed)*1000003 + int64(i)))
	// The first draw once picked an engine worker count; it is still drawn
	// and discarded so every seed keeps generating the same cases.
	_ = rng.Intn(3)
	c := topoCase{
		Index: i,
		Seed:  seed + uint64(i)*7919,
	}
	if rng.Intn(2) == 0 {
		c.Strategy = parallel.Data
		c.Preset = []string{"pkg2", "mesh1x3", "mesh2x2", "mesh1x4"}[rng.Intn(4)]
		c.GemmN = []int{32, 48, 64}[rng.Intn(3)]
	} else {
		c.Strategy = parallel.Tensor
		if rng.Intn(8) == 0 {
			c.Preset, c.Model = "mesh2x2", "decoder-small"
			c.Batch, c.Ctx = 1, 8
		} else {
			c.Preset, c.Model = "pkg2", "decoder-tiny"
			c.Batch = 1 + rng.Intn(3)
			c.Ctx = []int{4, 8, 16}[rng.Intn(3)]
		}
		c.Prefill = rng.Intn(4) == 0
	}
	return c
}

func runTopoCase(c topoCase, cache *service.Cache) error {
	tc, err := topo.Preset(c.Preset, npu.SmallConfig().Mem)
	if err != nil {
		return err
	}
	parts := tc.Packages()

	var rg *graph.Graph
	var wantRegions int64
	switch c.Strategy {
	case parallel.Data:
		rg, err = checkTopoGemmNumerics(c, parts)
		wantRegions = 1
	case parallel.Tensor:
		cfg, ok := modelzoo.DecoderConfig(modelzoo.Spec{Model: c.Model, Batch: c.Batch, Ctx: c.Ctx, Prefill: c.Prefill}.Normalize())
		if !ok {
			return fmt.Errorf("tensor parallelism on non-decoder model %q", c.Model)
		}
		rg, err = checkTopoDecoderNumerics(cfg, parts, c.Seed)
		wantRegions = 2 * int64(cfg.Layers)
	default:
		return fmt.Errorf("unexpected strategy %q", c.Strategy)
	}
	if err != nil {
		return err
	}

	key := fmt.Sprintf("%s|%s|b%d|c%d|n%d|pre%v|p%d", c.Strategy, c.Model, c.Batch, c.Ctx, c.GemmN, c.Prefill, parts)
	art, _, err := cache.Compile(key, npu.SmallConfig(), compiler.DefaultOptions(),
		func() (*graph.Graph, error) { return rg, nil })
	if err != nil {
		return fmt.Errorf("compiling rank graph: %w", err)
	}
	if art.FunctionalOK {
		return fmt.Errorf("collective graph compiled FunctionalOK=true: ring-lowered TOGs must not claim funcsim validity")
	}

	ev, fe, err := runTopoEngine(tc, rg.Name, art, false)
	if err != nil {
		return fmt.Errorf("event engine: %w", err)
	}
	st, fs, err := runTopoEngine(tc, rg.Name, art, true)
	if err != nil {
		return fmt.Errorf("strict-tick engine: %w", err)
	}
	if !reflect.DeepEqual(ev, st) {
		return fmt.Errorf("event vs strict-tick results diverge:\n%+v\n%+v", ev, st)
	}
	if !reflect.DeepEqual(fe.Pkg, fs.Pkg) {
		return fmt.Errorf("per-package fabric stats diverge across engine modes:\nevent:  %+v\nstrict: %+v", fe.Pkg, fs.Pkg)
	}
	if fe.LinkFlits != fs.LinkFlits {
		return fmt.Errorf("link flits diverge: %d / %d", fe.LinkFlits, fs.LinkFlits)
	}
	if fe.LinkFlits == 0 {
		return fmt.Errorf("ring collectives across %d packages moved zero link flits", parts)
	}
	if len(ev.Jobs) != parts {
		return fmt.Errorf("placed %d ranks, engine reports %d jobs", parts, len(ev.Jobs))
	}
	for _, j := range ev.Jobs {
		if j.Collectives != wantRegions {
			return fmt.Errorf("rank %s ran %d collective regions, want %d", j.Name, j.Collectives, wantRegions)
		}
		if j.CollectiveCycles <= 0 {
			return fmt.Errorf("rank %s has collective regions but zero collective cycles", j.Name)
		}
	}
	return nil
}

// checkTopoGemmNumerics builds the data-parallel rank graph of an N×N GEMM
// and checks its lockstep numerics: each rank gets its own seeded inputs,
// the output all_reduce sums across ranks, so every rank's result must
// match the elementwise sum of the per-rank single-graph outputs.
func checkTopoGemmNumerics(c topoCase, parts int) (*graph.Graph, error) {
	g := nn.GEMM(c.GemmN)
	rg := parallel.DataParallel(g, parts)
	r := tensor.NewRNG(c.Seed)
	envs := make([]*graph.Env, parts)
	var want *tensor.Tensor
	for rank := 0; rank < parts; rank++ {
		env := graph.NewEnv()
		env.Set("x", tensor.RandNormal(r, 0, 1, c.GemmN, c.GemmN))
		env.Set("w", tensor.RandNormal(r, 0, 0.5, c.GemmN, c.GemmN))
		envs[rank] = env
		vals, err := graph.Execute(g, env)
		if err != nil {
			return nil, fmt.Errorf("funcsim reference rank %d: %w", rank, err)
		}
		out := vals[g.Outputs[0]]
		if want == nil {
			cp := tensor.New(out.Shape...)
			copy(cp.Data, out.Data)
			want = cp
		} else {
			for i := range want.Data {
				want.Data[i] += out.Data[i]
			}
		}
	}
	replicas := make([]*graph.Graph, parts)
	for i := range replicas {
		replicas[i] = rg
	}
	shards, err := graph.ExecuteSharded(replicas, envs)
	if err != nil {
		return nil, fmt.Errorf("sharded execution: %w", err)
	}
	for rank := 0; rank < parts; rank++ {
		got := shards[rank][rg.Outputs[0]]
		if !tensor.AllClose(got, want, FuncTolerance, FuncTolerance) {
			return nil, fmt.Errorf("data-parallel rank %d diverges from summed funcsim reference (max |Δ| %g)",
				rank, tensor.MaxAbsDiff(got, want))
		}
	}
	return rg, nil
}

// checkTopoDecoderNumerics builds the Megatron tensor-parallel shard of a
// decoder and checks every rank's lockstep output against the single-graph
// funcsim reference within float32 tolerance (sum order differs: the
// reference sums heads sequentially, TP sums rank partials).
func checkTopoDecoderNumerics(cfg nn.DecoderConfig, parts int, seed uint64) (*graph.Graph, error) {
	ref := nn.Decoder(cfg, 1)
	env := ref.InitParams(seed)
	r := tensor.NewRNG(seed + 1)
	env.Set("x", tensor.RandNormal(r, 0, 1, ref.InputShape...))
	nn.FillKVCache(env, cfg, r)
	refVals, err := graph.Execute(ref.Graph, env)
	if err != nil {
		return nil, fmt.Errorf("funcsim reference: %w", err)
	}
	want := refVals[ref.OutputID]

	tp := nn.Decoder(cfg, parts)
	replicas := make([]*graph.Graph, parts)
	for i := range replicas {
		replicas[i] = tp.Graph
	}
	vals, err := graph.ExecuteSharded(replicas, nn.ShardDecoderEnv(cfg, env, parts))
	if err != nil {
		return nil, fmt.Errorf("sharded execution: %w", err)
	}
	for rank := 0; rank < parts; rank++ {
		got := vals[rank][tp.OutputID]
		if !tensor.AllClose(got, want, FuncTolerance, FuncTolerance) {
			return nil, fmt.Errorf("tensor-parallel rank %d/%d diverges from funcsim reference (max |Δ| %g)",
				rank, parts, tensor.MaxAbsDiff(got, want))
		}
	}
	return tp.Graph, nil
}

// runTopoEngine places the compiled rank graph across the topology and
// runs it on a fresh stack in the selected engine mode.
func runTopoEngine(tc topo.Config, name string, art *compiler.Compiled, strict bool) (togsim.Result, *topo.Fabric, error) {
	st := core.NewStack(npu.SmallConfig(), togsim.SimpleNet, dram.FRFCFS, tc)
	st.Engine.StrictTick = strict
	jobs, err := st.Place(name, art)
	if err != nil {
		return togsim.Result{}, nil, err
	}
	in, err := st.Run(jobs)
	return in.Res, in.Topo, err
}
