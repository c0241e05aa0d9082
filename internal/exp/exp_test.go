package exp

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/golden"
	"repro/internal/npu"
)

// The experiment drivers run in quick mode against the TPUv3 configuration
// (its wide vector units and 128x128 SA are what the workloads are sized
// for); full-scale runs happen in the benchmark harness and the
// experiments command.
func expCfg() npu.Config {
	return npu.TPUv3Config()
}

func TestWorkloadsBuild(t *testing.T) {
	for _, w := range append(KernelWorkloads(true), ModelWorkloads(true)...) {
		if err := w.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
}

func TestFig5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: full accuracy sweep, ~13s (DESIGN.md \"Test tiers\")")
	}
	res, err := Fig5(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The quick table holds only simulated cycles and MAEs, so it is
	// deterministic: it pins the CN reference and every model end to end.
	golden.Check(t, "../../testdata/golden/fig5.txt", []byte(res.String()))
	// The PyTorchSim configuration under test must be far more accurate
	// than the analytical roofline (the headline Fig. 5 shape).
	if res.MAEPyTorchSim >= res.MAEAnalytical {
		t.Fatalf("PyTorchSim MAE %.3f should beat analytical %.3f",
			res.MAEPyTorchSim, res.MAEAnalytical)
	}
	if res.MAEPyTorchSim > 0.25 {
		t.Fatalf("PyTorchSim(SN) MAE too high: %.3f", res.MAEPyTorchSim)
	}
	if !strings.Contains(res.String(), "MAE") {
		t.Fatal("table must report MAE")
	}
	// Baselines must underestimate end-to-end models (missing vector ops).
	for _, row := range res.Rows {
		if row.EndToEnd && row.Analytical >= row.Reference {
			t.Fatalf("%s: analytical (%d) should underestimate reference (%d)",
				row.Workload, row.Analytical, row.Reference)
		}
	}
}

func TestFig6Quick(t *testing.T) {
	res, err := Fig6(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.TLSSN <= 0 || row.ILS <= 0 {
			t.Fatalf("missing timings: %+v", row)
		}
		// TLS must beat ILS in wall-clock (the headline speed claim).
		if row.TLSSN >= row.ILS {
			t.Fatalf("%s: TLS (%v) must be faster than ILS (%v)", row.Workload, row.TLSSN, row.ILS)
		}
	}
}

func TestFig7aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: heterogeneous co-location sweep, ~7s (DESIGN.md \"Test tiers\")")
	}
	res, err := Fig7a(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../testdata/golden/fig7a.txt", []byte(res.String()))
	// The paper's shape: integrating helps the dense core (more usable
	// bandwidth under FR-FCFS) and hurts the sparse core.
	if res.DenseSpeedup() < 0.95 {
		t.Fatalf("dense core should not slow down much: %+v", res)
	}
	if res.SparseSlowdown() < 1.0 {
		t.Fatalf("sparse core should slow down when co-located: %+v", res)
	}
}

func TestFig7bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: multi-tenant BERT+ResNet sweep, ~60s (DESIGN.md \"Test tiers\")")
	}
	res, err := Fig7b(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../testdata/golden/fig7b.txt", []byte(res.String()))
	if res.BERTSolo <= 0 || res.ResNetSolo <= 0 || res.BERTCo <= 0 || res.ResNetCo <= 0 {
		t.Fatalf("missing latencies: %+v", res)
	}
	// Co-location with full shared bandwidth should help the bandwidth-
	// hungry model (BERT) relative to its half-bandwidth solo run.
	if res.BERTChange() > 1.1 {
		t.Fatalf("BERT should benefit from opportunistic bandwidth: ratio %.2f", res.BERTChange())
	}
}

func TestFig8aQuick(t *testing.T) {
	res, err := Fig8a(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../testdata/golden/fig8a.txt", []byte(res.String()))
	for _, row := range res.Rows {
		if row.Coarse <= 0 || row.Fine <= 0 || row.Selective <= 0 {
			t.Fatalf("missing cycles: %+v", row)
		}
		// Fine-grained DMA must not lose badly to coarse on these sizes.
		if float64(row.Fine) > float64(row.Coarse)*1.15 {
			t.Fatalf("%s: FG (%d) much slower than CG (%d)", row.Workload, row.Fine, row.Coarse)
		}
	}
}

func TestFig8bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: conv tiling sweep, ~30s (DESIGN.md \"Test tiers\")")
	}
	res, err := Fig8b(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../testdata/golden/fig8b.txt", []byte(res.String()))
	for _, row := range res.Rows {
		if float64(row.Unoptimized)/float64(row.Optimized) < 1.2 {
			t.Fatalf("%s: conv layout opt speedup only %.2fx",
				row.Workload, float64(row.Unoptimized)/float64(row.Optimized))
		}
	}
}

func TestFig8cQuick(t *testing.T) {
	res, err := Fig8c(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../testdata/golden/fig8c.txt", []byte(res.String()))
	for _, row := range res.Rows {
		if row.Optimized >= row.Unoptimized {
			t.Fatalf("%s: optimization did not help (%d vs %d)",
				row.Workload, row.Optimized, row.Unoptimized)
		}
	}
}

// fig9Quick runs the quick §5.4 study once for the tests that check it.
var fig9Quick = sync.OnceValues(func() (*Fig9Result, error) {
	return Fig9(expCfg(), true)
})

// TestFig9Regression pins the §5.4 study's absolute cycle counts captured
// on the pre-topology chiplet fabric (quick mode, TPUv3 config). The
// topology layer reproduces them bit-identically: any drift here means
// NUMA fabric timing moved.
func TestFig9Regression(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: chiplet mapping sweep, ~7s (DESIGN.md \"Test tiers\")")
	}
	res, err := fig9Quick()
	if err != nil {
		t.Fatal(err)
	}
	want := Fig9Result{
		Monolithic: 22587,
		Best:       39652,
		Random:     81502,
		Worst:      117990,
		BestLocal:  0.8, RandomLocal: 0.5, WorstLocal: 0.2,
	}
	if *res != want {
		t.Fatalf("fig9 drifted from the pre-topology baseline:\ngot  %+v\nwant %+v", *res, want)
	}
}

// TestFig9Quick pins the §5.4 table in fig9.txt and the paper's ordering.
func TestFig9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: chiplet mapping sweep, ~7s (DESIGN.md \"Test tiers\")")
	}
	res, err := fig9Quick()
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../testdata/golden/fig9.txt", []byte(res.String()))
	// Paper shape: monolithic < best < random < worst.
	if !(res.Monolithic < res.Best && res.Best < res.Random && res.Random < res.Worst) {
		t.Fatalf("ordering wrong: %+v", res)
	}
	if !(res.BestLocal > res.RandomLocal && res.RandomLocal > res.WorstLocal) {
		t.Fatalf("locality ordering wrong: %+v", res)
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: training batch sweep, ~7s (DESIGN.md \"Test tiers\")")
	}
	res, err := Fig10(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../testdata/golden/fig10.txt", []byte(res.String()))
	if !res.NPUMatchesCPU {
		t.Fatalf("NPU loss curve diverged from CPU: max delta %g", res.MaxLossDelta)
	}
	// Larger batch: more cycles per iteration but far fewer iterations per
	// epoch, so epochs cost much less (the paper's 4.6x mechanism), and
	// final accuracy drops.
	if res.Large.CyclesPerIter <= res.Small.CyclesPerIter {
		t.Fatalf("per-iteration cycles should grow with batch: %+v", res)
	}
	perEpoch := float64(res.Small.CyclesPerEpoch) / float64(res.Large.CyclesPerEpoch)
	if perEpoch < 2 {
		t.Fatalf("per-epoch speedup only %.2fx: %+v", perEpoch, res)
	}
	if res.Large.Accuracy >= res.Small.Accuracy {
		t.Fatalf("large batch should lose accuracy: %.3f vs %.3f", res.Large.Accuracy, res.Small.Accuracy)
	}
}

func TestSparseValidationQuick(t *testing.T) {
	res, err := SparseValidation(expCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.CycleErr > 0.15 {
			t.Fatalf("%s: TLS cycle error %.1f%% vs event-driven reference", row.Workload, row.CycleErr*100)
		}
		if row.RefWall <= row.TLSWall {
			t.Fatalf("%s: detailed reference (%v) should cost more wall-clock than TLS replay (%v)",
				row.Workload, row.RefWall, row.TLSWall)
		}
	}
}
