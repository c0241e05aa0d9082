package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// DecoderConfig parameterizes a transformer decoder block stack for LLM
// inference — the prefill/decode workload family. The same config builds
// two distinct graphs:
//
//   - Prefill (Prefill=true): Batch sequences of Ctx prompt tokens each are
//     processed at once; attention is full (tokens x tokens), exactly the
//     encoder shape, and the per-head K/V projections it computes are what
//     a serving system would write into the KV cache.
//   - Decode (Prefill=false): each sequence contributes exactly one new
//     token; Q is (Batch, dHead) per head and attends against a KV cache
//     of KVLen previously generated tokens, materialized as graph inputs
//     (DRAM-resident tensors the NPU must stream in). KV traffic therefore
//     grows with the generated length, which is the defining memory
//     behaviour of autoregressive decoding.
//
// The decode KV cache is modeled per head as one (KVLen, dHead) K and V
// tensor shared by the batch: sequences decoded together in a continuous
// batch sit at the same (padded) context length, so their per-sequence
// caches are shape-identical and the shared tensor stands in for the
// batch-wide cache read of one decode step.
type DecoderConfig struct {
	Name    string
	Batch   int
	Ctx     int // prefill: prompt tokens per sequence; decode: logical context
	KVLen   int // decode only: KV-cache length attended to (0 = Ctx)
	Hidden  int
	Heads   int
	Layers  int
	FFN     int // feed-forward inner dimension
	Prefill bool
}

// DecoderTinyConfig is the scaled-down decoder for tests:
// 2 layers, hidden 32, 2 heads.
func DecoderTinyConfig(batch, ctx int, prefill bool) DecoderConfig {
	return DecoderConfig{Name: "decoder-tiny", Batch: batch, Ctx: ctx,
		Hidden: 32, Heads: 2, Layers: 2, FFN: 64, Prefill: prefill}
}

// DecoderSmallConfig is a small decoder: 4 layers, hidden 256, 4 heads.
func DecoderSmallConfig(batch, ctx int, prefill bool) DecoderConfig {
	return DecoderConfig{Name: "decoder-small", Batch: batch, Ctx: ctx,
		Hidden: 256, Heads: 4, Layers: 4, FFN: 1024, Prefill: prefill}
}

// DecoderBaseConfig is a GPT-2-base-class decoder: 12 layers, hidden 768,
// 12 heads.
func DecoderBaseConfig(batch, ctx int, prefill bool) DecoderConfig {
	return DecoderConfig{Name: "decoder-base", Batch: batch, Ctx: ctx,
		Hidden: 768, Heads: 12, Layers: 12, FFN: 3072, Prefill: prefill}
}

// Decoder builds a transformer decoder block stack, either whole
// (parts == 1) or as the tensor-parallel shard each of `parts` ranks runs,
// Megatron-style. Like BERT, attention is expressed per head with separate
// projections (identical to slicing a fused projection), normalization is
// RMSNorm (pre-norm, no bias), and the MLP uses GELU. Prefill processes
// Batch*Ctx tokens with full attention; decode processes Batch single
// tokens against per-head KV-cache inputs.
//
// With parts > 1:
//
//   - Attention splits by head: each rank computes Heads/parts heads, sums
//     its head projections locally, then an all_reduce completes the
//     attention output across ranks.
//   - The MLP column-shards w1 (Hidden, FFN/parts) and row-shards w2
//     (FFN/parts, Hidden); the partial ffn2 products all_reduce.
//   - Residual streams and RMSNorms are replicated on every rank.
//
// The shard graph is rank-0-normalized and named with a -tp<parts>
// suffix: every rank runs this same graph, with rank r's environment
// binding its own weight shards (see ShardDecoderEnv) and the runtime
// binding collective peers around the ring. Activation input x is
// replicated.
func Decoder(cfg DecoderConfig, parts int) *Model {
	if cfg.Hidden%cfg.Heads != 0 {
		panic("nn: hidden must be divisible by heads")
	}
	if parts < 1 || cfg.Heads%parts != 0 || cfg.FFN%parts != 0 {
		panic(fmt.Sprintf("nn: heads (%d) and FFN (%d) must divide across %d ranks",
			cfg.Heads, cfg.FFN, parts))
	}
	kvLen := cfg.kvLen()
	rows, pass := cfg.Batch, "decode" // one new token per sequence
	if cfg.Prefill {
		rows, pass = cfg.Batch*cfg.Ctx, "prefill"
	}
	name := cfg.Name + "-" + pass
	if parts > 1 {
		name += fmt.Sprintf("-tp%d", parts)
	}
	headsPer := cfg.Heads / parts
	ffnPer := cfg.FFN / parts
	dHead := cfg.Hidden / cfg.Heads

	g := graph.New(name)
	cur := g.Input("x", rows, cfg.Hidden)
	mm := func(name string, a, w *graph.Node, m, n int) *graph.Node {
		return g.Add(&graph.Node{Op: graph.OpMatMul, Name: name, Inputs: []int{a.ID, w.ID}, Shape: []int{m, n}})
	}
	add := func(name string, a, b *graph.Node) *graph.Node {
		return g.Add(&graph.Node{Op: graph.OpAdd, Name: name, Inputs: []int{a.ID, b.ID}, Shape: append([]int(nil), a.Shape...)})
	}
	// allReduce completes a sum of rank partials; the whole model has none.
	allReduce := func(name string, a *graph.Node) *graph.Node {
		if parts == 1 {
			return a
		}
		return g.Add(&graph.Node{Op: graph.OpAllReduce, Name: name, Parts: parts,
			Inputs: []int{a.ID}, Shape: append([]int(nil), a.Shape...)})
	}

	for l := 0; l < cfg.Layers; l++ {
		p := func(s string) string { return fmt.Sprintf("l%d_%s", l, s) }
		// Pre-norm attention.
		g1 := g.Param(p("attn_norm_gamma"), cfg.Hidden)
		normed := g.Add(&graph.Node{
			Op: graph.OpRMSNorm, Name: p("attn_norm"),
			Inputs: []int{cur.ID, g1.ID}, Shape: []int{rows, cfg.Hidden},
		})
		// h is the rank-local head index; rank r's env binds global head
		// r*headsPer+h under these names.
		var attnPart *graph.Node
		for h := 0; h < headsPer; h++ {
			hp := func(s string) string { return fmt.Sprintf("l%d_h%d_%s", l, h, s) }
			// Prefill declares all three projection weights before the
			// products: node IDs are part of kernel and TOG names, so
			// this order keeps compiled artifacts stable.
			wq := g.Param(hp("wq"), cfg.Hidden, dHead)
			var wk, wv, k, v *graph.Node
			if cfg.Prefill {
				wk = g.Param(hp("wk"), cfg.Hidden, dHead)
				wv = g.Param(hp("wv"), cfg.Hidden, dHead)
			}
			q := mm(hp("q"), normed, wq, rows, dHead)
			if cfg.Prefill {
				k = mm(hp("k"), normed, wk, rows, dHead)
				v = mm(hp("v"), normed, wv, rows, dHead)
			} else {
				// The KV cache: kvLen previously processed tokens per
				// head, graph inputs the NPU must stream in by DMA.
				k = g.Input(hp("kcache"), kvLen, dHead)
				v = g.Input(hp("vcache"), kvLen, dHead)
			}
			scores := g.Add(&graph.Node{
				Op: graph.OpMatMulTB, Name: hp("scores"),
				Inputs: []int{q.ID, k.ID}, Shape: []int{rows, k.Shape[0]},
			})
			scaled := g.Add(&graph.Node{
				Op: graph.OpScale, Name: hp("scaled"), ScaleF: 1 / sqrtf(dHead),
				Inputs: []int{scores.ID}, Shape: append([]int(nil), scores.Shape...),
			})
			probs := g.Add(&graph.Node{
				Op: graph.OpSoftmax, Name: hp("probs"),
				Inputs: []int{scaled.ID}, Shape: append([]int(nil), scaled.Shape...),
			})
			ctx := mm(hp("ctx"), probs, v, rows, dHead)
			wo := g.Param(hp("wo"), dHead, cfg.Hidden)
			proj := mm(hp("proj"), ctx, wo, rows, cfg.Hidden)
			if attnPart == nil {
				attnPart = proj
			} else {
				attnPart = add(hp("headsum"), attnPart, proj)
			}
		}
		cur = add(p("res1"), allReduce(p("attn_ar"), attnPart), cur)

		// Pre-norm GELU MLP: column-parallel w1, row-parallel w2.
		g2 := g.Param(p("mlp_norm_gamma"), cfg.Hidden)
		normed2 := g.Add(&graph.Node{
			Op: graph.OpRMSNorm, Name: p("mlp_norm"),
			Inputs: []int{cur.ID, g2.ID}, Shape: []int{rows, cfg.Hidden},
		})
		w1 := g.Param(p("ffn_w1"), cfg.Hidden, ffnPer)
		f1 := mm(p("ffn1"), normed2, w1, rows, ffnPer)
		act := g.Add(&graph.Node{Op: graph.OpGELU, Name: p("gelu"), Inputs: []int{f1.ID}, Shape: []int{rows, ffnPer}})
		w2 := g.Param(p("ffn_w2"), ffnPer, cfg.Hidden)
		f2 := mm(p("ffn2"), act, w2, rows, cfg.Hidden)
		cur = add(p("res2"), allReduce(p("mlp_ar"), f2), cur)
	}
	g.Outputs = []int{cur.ID}
	m := newModel(g.Name, g)
	m.OutputID = cur.ID
	return m
}

// kvLen is the decode KV-cache length: KVLen, or Ctx when unset.
func (c DecoderConfig) kvLen() int {
	if c.KVLen > 0 {
		return c.KVLen
	}
	return c.Ctx
}

// FillKVCache binds every KV-cache input of the decode step Decoder(cfg, 1)
// builds (l<layer>_h<head>_kcache and _vcache, kvLen x head-dim each) in env
// to standard normal draws from r, layer by layer, head by head, K before V;
// ShardDecoderEnv hands them on to the shards. A prefill config has no cache
// inputs and draws nothing.
func FillKVCache(env *graph.Env, cfg DecoderConfig, r *tensor.RNG) {
	if cfg.Prefill {
		return
	}
	kvLen, dHead := cfg.kvLen(), cfg.Hidden/cfg.Heads
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			env.Set(fmt.Sprintf("l%d_h%d_kcache", l, h), tensor.RandNormal(r, 0, 1, kvLen, dHead))
			env.Set(fmt.Sprintf("l%d_h%d_vcache", l, h), tensor.RandNormal(r, 0, 1, kvLen, dHead))
		}
	}
}

// ShardDecoderEnv slices a full decoder environment (weights from
// Decoder(cfg, 1).InitParams plus inputs) into the per-rank environments a
// Decoder(cfg, parts) replica set executes with: rank r takes global heads
// [r*headsPer, (r+1)*headsPer) under local head names, w1 columns and w2
// rows [r*ffnPer, (r+1)*ffnPer), and replicated copies of everything else
// (norm gammas, x). Decode KV-cache inputs shard by head like the head
// weights.
func ShardDecoderEnv(cfg DecoderConfig, full *graph.Env, parts int) []*graph.Env {
	headsPer := cfg.Heads / parts
	ffnPer := cfg.FFN / parts
	envs := make([]*graph.Env, parts)
	for r := range envs {
		env := graph.NewEnv()
		for l := 0; l < cfg.Layers; l++ {
			p := func(s string) string { return fmt.Sprintf("l%d_%s", l, s) }
			env.Set(p("attn_norm_gamma"), full.Values[p("attn_norm_gamma")])
			env.Set(p("mlp_norm_gamma"), full.Values[p("mlp_norm_gamma")])
			for h := 0; h < headsPer; h++ {
				gh := r*headsPer + h
				local := func(s string) string { return fmt.Sprintf("l%d_h%d_%s", l, h, s) }
				global := func(s string) string { return fmt.Sprintf("l%d_h%d_%s", l, gh, s) }
				for _, w := range []string{"wq", "wo"} {
					env.Set(local(w), full.Values[global(w)])
				}
				if cfg.Prefill {
					env.Set(local("wk"), full.Values[global("wk")])
					env.Set(local("wv"), full.Values[global("wv")])
				} else {
					env.Set(local("kcache"), full.Values[global("kcache")])
					env.Set(local("vcache"), full.Values[global("vcache")])
				}
			}
			env.Set(p("ffn_w1"), sliceCols(full.Values[p("ffn_w1")], r*ffnPer, ffnPer))
			env.Set(p("ffn_w2"), sliceRows(full.Values[p("ffn_w2")], r*ffnPer, ffnPer))
		}
		env.Set("x", full.Values["x"])
		envs[r] = env
	}
	return envs
}

// sliceCols returns columns [off, off+n) of a 2-D tensor.
func sliceCols(t *tensor.Tensor, off, n int) *tensor.Tensor {
	rows, cols := t.Shape[0], t.Shape[1]
	out := tensor.New(rows, n)
	for i := 0; i < rows; i++ {
		copy(out.Data[i*n:(i+1)*n], t.Data[i*cols+off:i*cols+off+n])
	}
	return out
}

// sliceRows returns rows [off, off+n) of a 2-D tensor.
func sliceRows(t *tensor.Tensor, off, n int) *tensor.Tensor {
	cols := t.Shape[1]
	out := tensor.New(n, cols)
	copy(out.Data, t.Data[off*cols:(off+n)*cols])
	return out
}
