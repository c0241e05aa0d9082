// Package modelzoo is the shared model-building and compile path used by
// both the ptsim CLI and the ptsimd simulation service: it maps a small,
// serializable Spec (model name + shape parameters) to a captured graph
// and a target NPU configuration, so every front end compiles and
// simulates through one code path.
package modelzoo

import (
	"fmt"
	"sort"

	"repro/internal/autograd"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/parallel"
	"repro/internal/topo"
)

// Spec identifies a built-in workload by name and shape. The zero values
// of Batch/N/Seq mean "default"; Normalize resolves them so that two specs
// describing the same workload compare (and hash) identically.
type Spec struct {
	Model   string // gemm, mlp, mlp-train, resnet18, resnet50, bert-base, bert-large, decoder-{tiny,small,base}
	Batch   int    // batch size (default 1)
	N       int    // GEMM dimension (model=gemm, default 512)
	Seq     int    // sequence length (BERT models, default 512)
	Ctx     int    // context length (decoder models, default 128)
	Prefill bool   // decoder models: prompt pass instead of a decode step

	// Topology names the topo.Preset the workload targets (default
	// "single"); Parallel selects the cross-package strategy
	// (none|data|tensor). Both are part of the canonical spec — the same
	// model compiled for different topologies or strategies is a different
	// artifact, so compile caches must key on them.
	Topology string
	Parallel string
}

// Normalize fills defaults and drops shape parameters the model ignores,
// so e.g. {Model: "gemm", Seq: 384} and {Model: "gemm"} produce the same
// canonical spec (Seq only matters to BERT).
func (s Spec) Normalize() Spec {
	if s.Batch <= 0 {
		s.Batch = 1
	}
	if s.N <= 0 {
		s.N = 512
	}
	if s.Seq <= 0 {
		s.Seq = 512
	}
	if s.Ctx <= 0 {
		s.Ctx = 128
	}
	switch s.Model {
	case "gemm":
		s.Batch, s.Seq, s.Ctx, s.Prefill = 1, 0, 0, false
	case "bert-base", "bert-large":
		s.N, s.Ctx, s.Prefill = 0, 0, false
	case "decoder-tiny", "decoder-small", "decoder-base":
		s.N, s.Seq = 0, 0
	default:
		s.N, s.Seq, s.Ctx, s.Prefill = 0, 0, 0, false
	}
	if s.Topology == "" {
		s.Topology = "single"
	}
	if s.Parallel == "" || s.Topology == "single" {
		s.Parallel = string(parallel.None)
	}
	return s
}

// Models lists the built-in model names, sorted.
func Models() []string {
	out := []string{"gemm", "mlp", "mlp-train", "resnet18", "resnet50", "bert-base", "bert-large",
		"decoder-tiny", "decoder-small", "decoder-base"}
	sort.Strings(out)
	return out
}

// Known reports whether model names a built-in workload, without building
// anything (cheap admission-time validation).
func Known(model string) bool {
	for _, m := range Models() {
		if m == model {
			return true
		}
	}
	return false
}

// BuildGraph captures the graph for a spec (the model zoo of Fig. 1).
func BuildGraph(s Spec) (*graph.Graph, error) {
	s = s.Normalize()
	if cfg, ok := DecoderConfig(s); ok {
		return nn.Decoder(cfg, 1).Graph, nil
	}
	switch s.Model {
	case "gemm":
		return nn.GEMM(s.N), nil
	case "mlp":
		return nn.MLP(nn.DefaultMLP(s.Batch)).Graph, nil
	case "resnet18":
		return nn.ResNet(nn.ResNet18Config(s.Batch)).Graph, nil
	case "resnet50":
		return nn.ResNet(nn.ResNet50Config(s.Batch)).Graph, nil
	case "bert-base":
		return nn.BERT(nn.BERTBaseConfig(s.Batch, s.Seq)).Graph, nil
	case "bert-large":
		return nn.BERT(nn.BERTLargeConfig(s.Batch, s.Seq)).Graph, nil
	case "mlp-train":
		// One full training step (forward + backward + SGD updates), the
		// §5.5 per-iteration workload.
		m, lossID := nn.MLPWithLoss(nn.DefaultMLP(s.Batch))
		ts, err := autograd.Build(m.Graph, lossID, 0.05)
		if err != nil {
			return nil, err
		}
		return ts.Graph, nil
	default:
		return nil, fmt.Errorf("modelzoo: unknown model %q (have %v)", s.Model, Models())
	}
}

// Topology resolves the spec's topology preset against the target NPU's
// memory system (the monolithic HBM stack splits across packages).
func Topology(s Spec, mem npu.MemConfig) (topo.Config, error) {
	return topo.Preset(s.Normalize().Topology, mem)
}

// DecoderConfig resolves a decoder spec's nn config (decoder models only);
// it is the one place a decoder model name maps to its size. s should be
// normalized.
func DecoderConfig(s Spec) (nn.DecoderConfig, bool) {
	switch s.Model {
	case "decoder-tiny":
		return nn.DecoderTinyConfig(s.Batch, s.Ctx, s.Prefill), true
	case "decoder-small":
		return nn.DecoderSmallConfig(s.Batch, s.Ctx, s.Prefill), true
	case "decoder-base":
		return nn.DecoderBaseConfig(s.Batch, s.Ctx, s.Prefill), true
	}
	return nn.DecoderConfig{}, false
}

// BuildRankGraph captures the rank-0-normalized per-rank graph for a spec
// spread over `parts` packages: the plain graph when the strategy is none
// (or parts is 1), the replicated graph plus output all-reduce for data
// parallelism, and the Megatron-sharded decoder for tensor parallelism.
// One compile of this graph serves every rank (parallel.PlaceJobs rotates
// the placement).
func BuildRankGraph(s Spec, parts int) (*graph.Graph, error) {
	s = s.Normalize()
	strat, err := parallel.ParseStrategy(s.Parallel)
	if err != nil {
		return nil, err
	}
	if parts <= 1 || strat == parallel.None {
		return BuildGraph(s)
	}
	switch strat {
	case parallel.Data:
		g, err := BuildGraph(s)
		if err != nil {
			return nil, err
		}
		return parallel.DataParallel(g, parts), nil
	case parallel.Tensor:
		cfg, ok := DecoderConfig(s)
		if !ok {
			return nil, fmt.Errorf("modelzoo: tensor parallelism supports decoder models, not %q", s.Model)
		}
		if cfg.Heads%parts != 0 || cfg.FFN%parts != 0 {
			return nil, fmt.Errorf("modelzoo: %s (heads=%d, ffn=%d) does not shard %d ways",
				s.Model, cfg.Heads, cfg.FFN, parts)
		}
		return nn.Decoder(cfg, parts).Graph, nil
	default:
		return nil, fmt.Errorf("modelzoo: unknown strategy %q", s.Parallel)
	}
}

// BuildFor captures the graph a spec compiles to on a machine with the
// given memory system: the plain model graph on single-package topologies,
// the rank-0-normalized per-rank graph (one rank per package) otherwise.
// Every compile path — CLI, service cache, serving iterations — funnels
// through this so a spec always means the same artifact.
func BuildFor(s Spec, mem npu.MemConfig) (*graph.Graph, error) {
	tc, err := Topology(s, mem)
	if err != nil {
		return nil, err
	}
	return BuildRankGraph(s, tc.Packages())
}

// NPUConfig resolves a named target NPU ("" and "tpuv3" → the paper's
// TPUv3-like machine, "small" → the scaled-down test machine).
func NPUConfig(name string) (npu.Config, error) {
	switch name {
	case "", "tpuv3":
		return npu.TPUv3Config(), nil
	case "small":
		return npu.SmallConfig(), nil
	default:
		return npu.Config{}, fmt.Errorf("modelzoo: unknown NPU config %q (tpuv3, small)", name)
	}
}
