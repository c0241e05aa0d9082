package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func decodeEnv(m *Model, cfg DecoderConfig, seed uint64) *graph.Env {
	env := m.InitParams(seed)
	r := tensor.NewRNG(seed + 1)
	env.Set("x", tensor.RandNormal(r, 0, 1, m.InputShape...))
	FillKVCache(env, cfg, r)
	return env
}

func TestDecoderPrefillExecutes(t *testing.T) {
	cfg := DecoderTinyConfig(2, 4, true)
	m := Decoder(cfg, 1)
	if got := m.InputShape; got[0] != 2*4 || got[1] != cfg.Hidden {
		t.Fatalf("prefill input shape %v", got)
	}
	env := m.InitParams(3)
	r := tensor.NewRNG(4)
	env.Set("x", tensor.RandNormal(r, 0, 1, m.InputShape...))
	vals, err := graph.Execute(m.Graph, env)
	if err != nil {
		t.Fatal(err)
	}
	out := vals[m.OutputID]
	if out.Shape[0] != 8 || out.Shape[1] != cfg.Hidden {
		t.Fatalf("prefill output shape %v", out.Shape)
	}
}

func TestDecoderDecodeExecutes(t *testing.T) {
	cfg := DecoderTinyConfig(3, 8, false)
	m := Decoder(cfg, 1)
	if got := m.InputShape; got[0] != 3 || got[1] != cfg.Hidden {
		t.Fatalf("decode input shape %v (want one row per sequence)", got)
	}
	vals, err := graph.Execute(m.Graph, decodeEnv(m, cfg, 7))
	if err != nil {
		t.Fatal(err)
	}
	out := vals[m.OutputID]
	if out.Shape[0] != 3 || out.Shape[1] != cfg.Hidden {
		t.Fatalf("decode output shape %v", out.Shape)
	}
	var nonzero bool
	for _, v := range out.Data {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("decode output is all zeros; params likely misinitialized")
	}
}

// The decode step's first attention head must equal the textbook KV-cache
// attention: softmax(q K^T / sqrt(d)) V.
func TestDecoderDecodeAttentionReference(t *testing.T) {
	cfg := DecoderTinyConfig(2, 5, false)
	m := Decoder(cfg, 1)
	env := decodeEnv(m, cfg, 11)
	vals, err := graph.Execute(m.Graph, env)
	if err != nil {
		t.Fatal(err)
	}
	var normed, ctxNode *graph.Node
	for _, n := range m.Graph.Nodes {
		switch n.Name {
		case "l0_attn_norm":
			normed = n
		case "l0_h0_ctx":
			ctxNode = n
		}
	}
	if normed == nil || ctxNode == nil {
		t.Fatal("expected l0_attn_norm and l0_h0_ctx nodes")
	}
	dHead := cfg.Hidden / cfg.Heads
	q := tensor.MatMul(vals[normed.ID], env.Values["l0_h0_wq"])
	scores := tensor.MatMulTransB(q, env.Values["l0_h0_kcache"])
	probs := tensor.Softmax(tensor.Scale(scores, 1/sqrtf(dHead)))
	want := tensor.MatMul(probs, env.Values["l0_h0_vcache"])
	if !tensor.AllClose(vals[ctxNode.ID], want, 1e-4, 1e-4) {
		t.Fatal("decode attention disagrees with KV-cache reference")
	}
}

// KVLen overrides the attended cache length independently of Ctx — this is
// what lets the serving layer pad contexts to a KV block size so decode
// steps at nearby contexts share one compiled graph.
func TestDecoderKVLenPadding(t *testing.T) {
	a := DecoderTinyConfig(1, 5, false)
	a.KVLen = 8
	b := DecoderTinyConfig(1, 7, false)
	b.KVLen = 8
	ga, gb := Decoder(a, 1).Graph, Decoder(b, 1).Graph
	if len(ga.Nodes) != len(gb.Nodes) {
		t.Fatalf("padded graphs differ in size: %d vs %d", len(ga.Nodes), len(gb.Nodes))
	}
	for i := range ga.Nodes {
		na, nb := ga.Nodes[i], gb.Nodes[i]
		if na.Op != nb.Op || fmt.Sprint(na.Shape) != fmt.Sprint(nb.Shape) {
			t.Fatalf("node %d differs: %s%v vs %s%v", i, na.Op, na.Shape, nb.Op, nb.Shape)
		}
	}
}

// decoderByHand computes the whole decoder forward pass from env with
// tensor ops alone, sharing no code with the graph builder or executor:
// per layer, RMSNorm, every attention head (prefill projects K/V from the
// tokens, decode reads the KV-cache inputs), the head sum and residual,
// then RMSNorm, the GELU MLP and the second residual.
func decoderByHand(cfg DecoderConfig, env *graph.Env) *tensor.Tensor {
	w := func(format string, a ...any) *tensor.Tensor { return env.Values[fmt.Sprintf(format, a...)] }
	const eps = 1e-5
	scale := float32(1 / math.Sqrt(float64(cfg.Hidden/cfg.Heads)))
	x := env.Values["x"]
	for l := 0; l < cfg.Layers; l++ {
		normed := tensor.RMSNorm(x, w("l%d_attn_norm_gamma", l), eps)
		var attn *tensor.Tensor
		for h := 0; h < cfg.Heads; h++ {
			q := tensor.MatMul(normed, w("l%d_h%d_wq", l, h))
			k, v := w("l%d_h%d_kcache", l, h), w("l%d_h%d_vcache", l, h)
			if cfg.Prefill {
				k = tensor.MatMul(normed, w("l%d_h%d_wk", l, h))
				v = tensor.MatMul(normed, w("l%d_h%d_wv", l, h))
			}
			probs := tensor.Softmax(tensor.Scale(tensor.MatMulTransB(q, k), scale))
			proj := tensor.MatMul(tensor.MatMul(probs, v), w("l%d_h%d_wo", l, h))
			if attn == nil {
				attn = proj
			} else {
				attn = tensor.Add(attn, proj)
			}
		}
		x = tensor.Add(x, attn)
		normed2 := tensor.RMSNorm(x, w("l%d_mlp_norm_gamma", l), eps)
		mlp := tensor.MatMul(tensor.GELU(tensor.MatMul(normed2, w("l%d_ffn_w1", l))), w("l%d_ffn_w2", l))
		x = tensor.Add(x, mlp)
	}
	return x
}

// The built decoder, prefill and decode, must equal the hand-computed
// layer stack. This is the reference that shares no code with Decoder:
// the tensor-parallel tests compare two outputs of the same builder.
func TestDecoderMatchesHandReference(t *testing.T) {
	for _, cfg := range []DecoderConfig{
		DecoderTinyConfig(2, 4, true),
		DecoderTinyConfig(3, 6, false),
	} {
		m := Decoder(cfg, 1)
		env := decodeEnv(m, cfg, 23)
		vals, err := graph.Execute(m.Graph, env)
		if err != nil {
			t.Fatal(err)
		}
		got, want := vals[m.OutputID], decoderByHand(cfg, env)
		if !tensor.AllClose(got, want, 1e-4, 1e-4) {
			t.Fatalf("%s (prefill=%v) disagrees with the hand reference (max |Δ| %g)",
				m.Graph.Name, cfg.Prefill, tensor.MaxAbsDiff(got, want))
		}
	}
}
