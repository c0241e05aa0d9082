package sparsecore

import (
	"testing"

	"repro/internal/sparse"
	"repro/internal/tensor"
)

func TestTileCyclesDataDependent(t *testing.T) {
	r := tensor.NewRNG(1)
	cfg := DefaultConfig()
	sparse5 := sparse.Random(r, 64, 64, 0.05)
	sparse50 := sparse.Random(r, 64, 64, 0.5)
	dense := sparse.Random(r, 64, 64, 1.0)
	c5 := cfg.TileCycles(sparse5, sparse5)
	c50 := cfg.TileCycles(sparse50, sparse50)
	cd := cfg.TileCycles(dense, dense)
	if !(c5 < c50 && c50 < cd) {
		t.Fatalf("latency must grow with density: %d, %d, %d", c5, c50, cd)
	}
	// Empty tiles cost only the fixed overhead.
	empty := &sparse.CSR{Rows: 64, Cols: 64, RowPtr: make([]int32, 65)}
	if cfg.TileCycles(empty, dense) != cfg.FetchOverhead {
		t.Fatalf("empty tile latency = %d", cfg.TileCycles(empty, dense))
	}
}

func TestTileCyclesDeterministicPerTile(t *testing.T) {
	r := tensor.NewRNG(2)
	cfg := DefaultConfig()
	a := sparse.Random(r, 32, 32, 0.1)
	b := sparse.Random(r, 32, 32, 0.1)
	if cfg.TileCycles(a, b) != cfg.TileCycles(a, b) {
		t.Fatal("per-tile latency must be deterministic")
	}
}

func TestBuildTiledJobStructure(t *testing.T) {
	r := tensor.NewRNG(4)
	a := sparse.Random(r, 64, 64, 0.1)
	b := sparse.Random(r, 64, 64, 0.1)
	job, err := BuildTiledJob("spmspm", a, b, 32, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.TOG.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2x2 output tiles x 2 k-blocks = 8 compute nodes.
	s, err := job.TOG.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.ComputeNodes != 8 {
		t.Fatalf("compute nodes = %d, want 8", s.ComputeNodes)
	}
	if s.StoreNodes != 4 {
		t.Fatalf("store nodes = %d, want 4", s.StoreNodes)
	}
	// Output nnz must match the full product.
	want := sparse.SpMSpM(a, b).NNZ()
	if job.OutNNZ != want {
		t.Fatalf("tiled output nnz %d, full product %d", job.OutNNZ, want)
	}
}

func TestAddCSR(t *testing.T) {
	r := tensor.NewRNG(7)
	a := sparse.Random(r, 10, 10, 0.3)
	b := sparse.Random(r, 10, 10, 0.3)
	got := addCSR(a, b).ToDense()
	want := tensor.Add(a.ToDense(), b.ToDense())
	if !tensor.AllClose(got, want, 1e-5, 1e-5) {
		t.Fatal("addCSR wrong")
	}
}

func TestTiledLatencySumMatchesUntiled(t *testing.T) {
	// Total multiply work is tile-invariant.
	r := tensor.NewRNG(8)
	a := sparse.Random(r, 96, 96, 0.1)
	b := sparse.Random(r, 96, 96, 0.1)
	job32, err := BuildTiledJob("a", a, b, 32, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	job48, err := BuildTiledJob("b", a, b, 48, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	full := sparse.MultCount(a, b)
	if job32.TotalMul != full || job48.TotalMul != full {
		t.Fatalf("multiply work not tile-invariant: %d, %d, want %d", job32.TotalMul, job48.TotalMul, full)
	}
}
