// Bit-identity pin for kernel measurement: every (kernel signature, measured
// cycles) pair the eight cold compiles of the compile.zoo-cold workload
// produce on TPUv3. The measurement is funcsim executing each kernel with the
// timingsim pipeline attached, so any change to either that moves one cycle
// of one kernel fails here. Regenerate after an intentional timing-model
// change with
//
//	go test -run TestGoldenZooKernelLatencies -update .
package main

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/golden"
)

func TestGoldenZooKernelLatencies(t *testing.T) {
	var got bytes.Buffer
	for _, spec := range zooColdSpecs {
		c := compiler.New(benchCfg(), compiler.DefaultOptions())
		if _, err := c.Compile(buildModel(t, spec)); err != nil {
			t.Fatal(err)
		}
		lat := c.Latencies()
		sigs := make([]string, 0, len(lat))
		for s := range lat {
			sigs = append(sigs, s)
		}
		sort.Strings(sigs)
		fmt.Fprintf(&got, "# %s b%d seq%d ctx%d prefill=%v: %d kernels\n",
			spec.Model, spec.Batch, spec.Seq, spec.Ctx, spec.Prefill, len(sigs))
		for _, s := range sigs {
			fmt.Fprintf(&got, "%s\t%d\n", s, lat[s])
		}
	}

	golden.Check(t, "testdata/golden/zoo_kernel_latencies.txt", got.Bytes())
}
