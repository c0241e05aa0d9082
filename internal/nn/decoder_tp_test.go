package nn

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Tensor-parallel decoder shards executed in lockstep must reproduce the
// single-graph decoder within float32 tolerance (sum order differs: the
// reference sums heads sequentially, TP sums rank partials).
func testDecoderTPMatches(t *testing.T, cfg DecoderConfig, parts int) {
	t.Helper()
	ref := Decoder(cfg, 1)
	env := decodeEnv(ref, cfg, 17)
	refVals, err := graph.Execute(ref.Graph, env)
	if err != nil {
		t.Fatal(err)
	}
	want := refVals[ref.OutputID]

	tp := Decoder(cfg, parts)
	replicas := make([]*graph.Graph, parts)
	for r := range replicas {
		replicas[r] = tp.Graph
	}
	vals, err := graph.ExecuteSharded(replicas, ShardDecoderEnv(cfg, env, parts))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < parts; r++ {
		got := vals[r][tp.OutputID]
		if !tensor.AllClose(got, want, 1e-3, 1e-3) {
			t.Fatalf("rank %d/%d diverges from the single-core reference", r, parts)
		}
	}
}

func TestDecoderTPDecodeMatchesReference(t *testing.T) {
	testDecoderTPMatches(t, DecoderTinyConfig(3, 8, false), 2)
}

func TestDecoderTPPrefillMatchesReference(t *testing.T) {
	testDecoderTPMatches(t, DecoderTinyConfig(2, 4, true), 2)
}

func TestDecoderTPFourWay(t *testing.T) {
	cfg := DecoderConfig{Name: "tp4", Batch: 2, Ctx: 8, Hidden: 64, Heads: 4,
		Layers: 2, FFN: 64, Prefill: false}
	testDecoderTPMatches(t, cfg, 4)
}

// Every rank's replica is the same graph value — rank-0 normalization is
// structural, so placement only rebinds tensors, never recompiles.
func TestDecoderTPParamFootprintShrinks(t *testing.T) {
	cfg := DecoderTinyConfig(2, 8, false)
	full := Decoder(cfg, 1)
	tp := Decoder(cfg, 2)
	if tp.ParamBytes() >= full.ParamBytes() {
		t.Fatalf("TP shard params (%d B) should be smaller than full model (%d B)",
			tp.ParamBytes(), full.ParamBytes())
	}
}
