// Graph-structure golden: one line per built graph with its name, node
// count and a SHA-256 over every node's fields in order, so a builder
// refactor that moves, renames or reshapes a single node shows as a moved
// line. Regenerate after an intentional graph change with
//
//	go test ./internal/nn -run TestGraphStructureGolden -update
package nn_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/golden"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/service/modelzoo"
)

// graphLine renders one golden line: case, graph name, node count, and
// the hash of every node (all fields, in ID order) plus the outputs.
func graphLine(label string, g *graph.Graph) string {
	h := sha256.New()
	for _, n := range g.Nodes {
		fmt.Fprintf(h, "%+v\n", *n)
	}
	fmt.Fprintf(h, "outputs %v\n", g.Outputs)
	return fmt.Sprintf("%s %s %d %x\n", label, g.Name, len(g.Nodes), h.Sum(nil))
}

func TestGraphStructureGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, m := range modelzoo.Models() {
		g, err := modelzoo.BuildGraph(modelzoo.Spec{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(graphLine("zoo/"+m, g))
	}
	sizes := []struct {
		name string
		cfg  func(batch, ctx int, prefill bool) nn.DecoderConfig
	}{
		{"tiny", nn.DecoderTinyConfig},
		{"small", nn.DecoderSmallConfig},
		{"base", nn.DecoderBaseConfig},
	}
	for _, s := range sizes {
		for _, prefill := range []bool{true, false} {
			cfg := s.cfg(2, 16, prefill)
			for _, parts := range []int{1, 2, 4} {
				if cfg.Heads%parts != 0 || cfg.FFN%parts != 0 {
					continue
				}
				label := fmt.Sprintf("decoder-%s/prefill=%v/parts=%d", s.name, prefill, parts)
				buf.WriteString(graphLine(label, nn.Decoder(cfg, parts).Graph))
			}
		}
	}
	padded := nn.DecoderTinyConfig(2, 5, false)
	padded.KVLen = 8
	buf.WriteString(graphLine("decoder-tiny/kvlen=8/parts=1", nn.Decoder(padded, 1).Graph))

	golden.Check(t, "testdata/graphs.golden", buf.Bytes())
}
