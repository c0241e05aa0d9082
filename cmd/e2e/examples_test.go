package e2e

import (
	"testing"

	"repro/internal/golden"
)

// TestExamplesMatchGoldens pins the whole output of every example that
// prints no host time (testdata/golden/example_<name>.txt). quickstart
// prints its wall time, so go build is its only check.
func TestExamplesMatchGoldens(t *testing.T) {
	for _, name := range []string{"chiplet", "multitenancy", "sparse_hetero", "training"} {
		t.Run(name, func(t *testing.T) {
			if name == "training" && testing.Short() {
				t.Skip("trains two MLPs on the simulated NPU, ~6 s")
			}
			out := mustRun(t, buildCmd(t, "examples/"+name))
			golden.Check(t, "../../testdata/golden/example_"+name+".txt", []byte(out))
		})
	}
}
