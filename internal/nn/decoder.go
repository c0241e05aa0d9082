package nn

import (
	"fmt"

	"repro/internal/graph"
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

// Decoder builds a transformer decoder block stack. Like BERT, attention
// is expressed per head with separate projections (identical to slicing a
// fused projection), normalization is RMSNorm (pre-norm, no bias), and the
// MLP uses GELU. Prefill processes Batch*Ctx tokens with full attention;
// decode processes Batch single tokens against per-head KV-cache inputs.
func Decoder(cfg DecoderConfig) *Model {
	if cfg.Hidden%cfg.Heads != 0 {
		panic("nn: hidden must be divisible by heads")
	}
	if cfg.Prefill {
		return decoderPrefill(cfg)
	}
	return decoderDecode(cfg)
}

// decoderPrefill is the full-attention prompt pass over Batch*Ctx tokens.
func decoderPrefill(cfg DecoderConfig) *Model {
	g := graph.New(fmt.Sprintf("%s-prefill", cfg.Name))
	tokens := cfg.Batch * cfg.Ctx
	dHead := cfg.Hidden / cfg.Heads

	x := g.Input("x", tokens, cfg.Hidden)
	cur := x
	mm := func(name string, a, w *graph.Node, m, n int) *graph.Node {
		return g.Add(&graph.Node{Op: graph.OpMatMul, Name: name, Inputs: []int{a.ID, w.ID}, Shape: []int{m, n}})
	}
	add := func(name string, a, b *graph.Node) *graph.Node {
		return g.Add(&graph.Node{Op: graph.OpAdd, Name: name, Inputs: []int{a.ID, b.ID}, Shape: append([]int(nil), a.Shape...)})
	}

	for l := 0; l < cfg.Layers; l++ {
		p := func(s string) string { return fmt.Sprintf("l%d_%s", l, s) }
		// Pre-norm attention.
		g1 := g.Param(p("attn_norm_gamma"), cfg.Hidden)
		normed := g.Add(&graph.Node{
			Op: graph.OpRMSNorm, Name: p("attn_norm"),
			Inputs: []int{cur.ID, g1.ID}, Shape: []int{tokens, cfg.Hidden},
		})
		var attnOut *graph.Node
		for h := 0; h < cfg.Heads; h++ {
			hp := func(s string) string { return fmt.Sprintf("l%d_h%d_%s", l, h, s) }
			wq := g.Param(hp("wq"), cfg.Hidden, dHead)
			wk := g.Param(hp("wk"), cfg.Hidden, dHead)
			wv := g.Param(hp("wv"), cfg.Hidden, dHead)
			q := mm(hp("q"), normed, wq, tokens, dHead)
			k := mm(hp("k"), normed, wk, tokens, dHead)
			v := mm(hp("v"), normed, wv, tokens, dHead)
			scores := g.Add(&graph.Node{
				Op: graph.OpMatMulTB, Name: hp("scores"),
				Inputs: []int{q.ID, k.ID}, Shape: []int{tokens, tokens},
			})
			scaled := g.Add(&graph.Node{
				Op: graph.OpScale, Name: hp("scaled"), ScaleF: 1 / sqrtf(dHead),
				Inputs: []int{scores.ID}, Shape: []int{tokens, tokens},
			})
			probs := g.Add(&graph.Node{
				Op: graph.OpSoftmax, Name: hp("probs"),
				Inputs: []int{scaled.ID}, Shape: []int{tokens, tokens},
			})
			ctx := mm(hp("ctx"), probs, v, tokens, dHead)
			wo := g.Param(hp("wo"), dHead, cfg.Hidden)
			proj := mm(hp("proj"), ctx, wo, tokens, cfg.Hidden)
			if attnOut == nil {
				attnOut = proj
			} else {
				attnOut = add(hp("headsum"), attnOut, proj)
			}
		}
		cur = add(p("res1"), attnOut, cur)
		// Pre-norm MLP.
		g2 := g.Param(p("mlp_norm_gamma"), cfg.Hidden)
		normed2 := g.Add(&graph.Node{
			Op: graph.OpRMSNorm, Name: p("mlp_norm"),
			Inputs: []int{cur.ID, g2.ID}, Shape: []int{tokens, cfg.Hidden},
		})
		cur = add(p("res2"), decoderMLP(g, normed2, l, tokens, cfg), cur)
	}
	g.Outputs = []int{cur.ID}
	m := newModel(g.Name, g)
	m.OutputID = cur.ID
	return m
}

// decoderDecode is one autoregressive step: Batch current tokens attend
// against per-head KV caches of kvLen tokens (graph inputs, i.e. DRAM
// tensors streamed in by DMA).
func decoderDecode(cfg DecoderConfig) *Model {
	kvLen := cfg.KVLen
	if kvLen <= 0 {
		kvLen = cfg.Ctx
	}
	g := graph.New(fmt.Sprintf("%s-decode", cfg.Name))
	rows := cfg.Batch // one new token per sequence
	dHead := cfg.Hidden / cfg.Heads

	x := g.Input("x", rows, cfg.Hidden)
	cur := x
	mm := func(name string, a, w *graph.Node, m, n int) *graph.Node {
		return g.Add(&graph.Node{Op: graph.OpMatMul, Name: name, Inputs: []int{a.ID, w.ID}, Shape: []int{m, n}})
	}
	add := func(name string, a, b *graph.Node) *graph.Node {
		return g.Add(&graph.Node{Op: graph.OpAdd, Name: name, Inputs: []int{a.ID, b.ID}, Shape: append([]int(nil), a.Shape...)})
	}

	for l := 0; l < cfg.Layers; l++ {
		p := func(s string) string { return fmt.Sprintf("l%d_%s", l, s) }
		g1 := g.Param(p("attn_norm_gamma"), cfg.Hidden)
		normed := g.Add(&graph.Node{
			Op: graph.OpRMSNorm, Name: p("attn_norm"),
			Inputs: []int{cur.ID, g1.ID}, Shape: []int{rows, cfg.Hidden},
		})
		var attnOut *graph.Node
		for h := 0; h < cfg.Heads; h++ {
			hp := func(s string) string { return fmt.Sprintf("l%d_h%d_%s", l, h, s) }
			wq := g.Param(hp("wq"), cfg.Hidden, dHead)
			q := mm(hp("q"), normed, wq, rows, dHead)
			// The KV cache: kvLen previously processed tokens per head.
			kc := g.Input(hp("kcache"), kvLen, dHead)
			vc := g.Input(hp("vcache"), kvLen, dHead)
			scores := g.Add(&graph.Node{
				Op: graph.OpMatMulTB, Name: hp("scores"),
				Inputs: []int{q.ID, kc.ID}, Shape: []int{rows, kvLen},
			})
			scaled := g.Add(&graph.Node{
				Op: graph.OpScale, Name: hp("scaled"), ScaleF: 1 / sqrtf(dHead),
				Inputs: []int{scores.ID}, Shape: []int{rows, kvLen},
			})
			probs := g.Add(&graph.Node{
				Op: graph.OpSoftmax, Name: hp("probs"),
				Inputs: []int{scaled.ID}, Shape: []int{rows, kvLen},
			})
			ctx := mm(hp("ctx"), probs, vc, rows, dHead)
			wo := g.Param(hp("wo"), dHead, cfg.Hidden)
			proj := mm(hp("proj"), ctx, wo, rows, cfg.Hidden)
			if attnOut == nil {
				attnOut = proj
			} else {
				attnOut = add(hp("headsum"), attnOut, proj)
			}
		}
		cur = add(p("res1"), attnOut, cur)
		g2 := g.Param(p("mlp_norm_gamma"), cfg.Hidden)
		normed2 := g.Add(&graph.Node{
			Op: graph.OpRMSNorm, Name: p("mlp_norm"),
			Inputs: []int{cur.ID, g2.ID}, Shape: []int{rows, cfg.Hidden},
		})
		cur = add(p("res2"), decoderMLP(g, normed2, l, rows, cfg), cur)
	}
	g.Outputs = []int{cur.ID}
	m := newModel(g.Name, g)
	m.OutputID = cur.ID
	return m
}

// decoderMLP is the GELU feed-forward block shared by both passes.
func decoderMLP(g *graph.Graph, in *graph.Node, layer, rows int, cfg DecoderConfig) *graph.Node {
	p := func(s string) string { return fmt.Sprintf("l%d_%s", layer, s) }
	w1 := g.Param(p("ffn_w1"), cfg.Hidden, cfg.FFN)
	f1 := g.Add(&graph.Node{Op: graph.OpMatMul, Name: p("ffn1"), Inputs: []int{in.ID, w1.ID}, Shape: []int{rows, cfg.FFN}})
	act := g.Add(&graph.Node{Op: graph.OpGELU, Name: p("gelu"), Inputs: []int{f1.ID}, Shape: []int{rows, cfg.FFN}})
	w2 := g.Param(p("ffn_w2"), cfg.FFN, cfg.Hidden)
	return g.Add(&graph.Node{Op: graph.OpMatMul, Name: p("ffn2"), Inputs: []int{act.ID, w2.ID}, Shape: []int{rows, cfg.Hidden}})
}
