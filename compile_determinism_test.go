// Determinism suite for the pass-structured compiler: worker count, compile
// order, and the persistent disk cache must all be invisible in the
// compiled artifact. Each case compiles real zoo models (resnet18,
// bert-base) and compares full Compiled values with reflect.DeepEqual —
// bit-identical or bust. Run under -race with varying GOMAXPROCS to stress
// the fan-out (see Makefile's `check` target).
package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/service"
	"repro/internal/service/cache"
	"repro/internal/service/modelzoo"
)

// determinismModels are the compile workloads: a conv net and a transformer,
// shrunk where the shape does not change code paths (bert sequence length).
var determinismModels = []modelzoo.Spec{
	{Model: "resnet18", Batch: 1},
	{Model: "bert-base", Seq: 64},
}

func buildModel(t *testing.T, spec modelzoo.Spec) *graph.Graph {
	t.Helper()
	g, err := modelzoo.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCompileDeterminismAcrossWorkers: serial (Workers=1) and wide
// (Workers=8) compilation of the same model must produce identical
// Compiled values, including kernel programs and TOG latencies.
func TestCompileDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: repeated full compiles, ~1s (DESIGN.md \"Test tiers\")")
	}
	for _, spec := range determinismModels {
		t.Run(spec.Model, func(t *testing.T) {
			g := buildModel(t, spec)

			serial := compiler.New(npu.TPUv3Config(), compiler.DefaultOptions())
			serial.Workers = 1
			want, err := serial.Compile(g)
			if err != nil {
				t.Fatal(err)
			}

			parallel := compiler.New(npu.TPUv3Config(), compiler.DefaultOptions())
			parallel.Workers = 8
			got, err := parallel.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("parallel compilation differs from serial")
			}
			if serial.MeasureCount() != parallel.MeasureCount() {
				t.Fatalf("measurement counts differ: serial %d, parallel %d",
					serial.MeasureCount(), parallel.MeasureCount())
			}
		})
	}
}

// jitterMeasurer is the real timing measurer behind a per-signature delay
// of 0-2 ms, drawn from a seeded hash of the kernel's name, so that
// measurements finish out of the order lowering found them in.
type jitterMeasurer struct{ seed uint64 }

func (m jitterMeasurer) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", m.seed, p.Name)
	time.Sleep(time.Duration(h.Sum64() % uint64(2*time.Millisecond)))
	return compiler.TimingMeasurer{}.Measure(cfg, p)
}

// TestCompileDeterminismStreaming: with measurements finishing in a
// scrambled order while lowering is still feeding the workers, every
// worker count must produce the Workers=1 compilation.
func TestCompileDeterminismStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: repeated full compiles with delayed measurements, ~1s (DESIGN.md \"Test tiers\")")
	}
	for _, spec := range determinismModels {
		t.Run(spec.Model, func(t *testing.T) {
			g := buildModel(t, spec)
			var want *compiler.Compiled
			for _, workers := range []int{1, 2, 8} {
				c := compiler.New(npu.TPUv3Config(), compiler.DefaultOptions())
				c.Workers = workers
				c.Measurer = jitterMeasurer{seed: 1}
				got, err := c.Compile(g)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("workers=%d: compilation differs from workers=1", workers)
				}
			}
		})
	}
}

// TestCompileWarmDiskIdentical: a compile against a pre-warmed disk cache
// must measure zero kernels and still produce a bit-identical artifact.
func TestCompileWarmDiskIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: cold+warm disk-cache compiles, ~1s (DESIGN.md \"Test tiers\")")
	}
	for _, spec := range determinismModels {
		t.Run(spec.Model, func(t *testing.T) {
			g := buildModel(t, spec)
			dir := t.TempDir()

			coldSim := core.NewSimulator(npu.TPUv3Config(), compiler.DefaultOptions())
			disk, err := cache.NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			coldSim.Compiler.Cache().SetStore(disk)
			want, err := coldSim.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			if coldSim.Compiler.MeasureCount() == 0 {
				t.Fatal("cold compile measured nothing")
			}

			// Fresh process simulation: new simulator, new store handle on the
			// same directory.
			warmSim := core.NewSimulator(npu.TPUv3Config(), compiler.DefaultOptions())
			disk2, err := cache.NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			warmSim.Compiler.Cache().SetStore(disk2)
			got, err := warmSim.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			if n := warmSim.Compiler.MeasureCount(); n != 0 {
				t.Fatalf("warm compile re-measured %d kernels", n)
			}
			if hits, _ := disk2.Stats(); hits == 0 {
				t.Fatal("warm compile never hit the disk store")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("warm-disk compilation differs from cold")
			}
		})
	}
}

// TestCorruptDiskEntryRecompiles: flipping bytes in every persisted cache
// file must degrade to a clean cold compile — same artifact, fresh
// measurements, no error.
func TestCorruptDiskEntryRecompiles(t *testing.T) {
	spec := determinismModels[0]
	g := buildModel(t, spec)
	dir := t.TempDir()

	coldSim := core.NewSimulator(npu.TPUv3Config(), compiler.DefaultOptions())
	disk, err := cache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldSim.Compiler.Cache().SetStore(disk)
	want, err := coldSim.Compile(g)
	if err != nil {
		t.Fatal(err)
	}

	corrupted := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		corrupted++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("cold compile persisted nothing to corrupt")
	}

	recSim := core.NewSimulator(npu.TPUv3Config(), compiler.DefaultOptions())
	disk2, err := cache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	recSim.Compiler.Cache().SetStore(disk2)
	got, err := recSim.Compile(g)
	if err != nil {
		t.Fatalf("compile against corrupted cache: %v", err)
	}
	if recSim.Compiler.MeasureCount() == 0 {
		t.Fatal("corrupted entry was trusted: no kernels re-measured")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("recompile after corruption differs from the original")
	}
	if _, misses := disk2.Stats(); misses == 0 {
		t.Fatal("corrupted entry did not register as a store miss")
	}
}

// TestServiceCacheWarmRestart exercises the daemon path: a fresh service
// compile cache over a pre-warmed disk directory (a restarted ptsimd) must
// serve the same compilation without a single new measurement.
func TestServiceCacheWarmRestart(t *testing.T) {
	spec := determinismModels[1]
	dir := t.TempDir()
	cfg := npu.TPUv3Config()
	opts := compiler.DefaultOptions()
	build := func() (*graph.Graph, error) { return modelzoo.BuildGraph(spec) }
	key := service.CompileKey(spec, cfg, opts)

	run := func() (*compiler.Compiled, int64) {
		disk, err := cache.NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		cc := service.NewCache()
		cc.SetStore(cache.NewLayered(cache.NewMemory(), disk))
		var built *compiler.Compiler
		cc.SetCompilerHook(func(c *compiler.Compiler) { built = c })
		comp, hit, err := cc.Compile(key, cfg, opts, build)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("first compile in a fresh cache reported a hit")
		}
		if built == nil {
			t.Fatal("compiler hook never ran")
		}
		return comp, built.MeasureCount()
	}

	first, coldMeasured := run()
	if coldMeasured == 0 {
		t.Fatal("cold service compile measured nothing")
	}
	second, warmMeasured := run()
	if warmMeasured != 0 {
		t.Fatalf("restarted service re-measured %d kernels", warmMeasured)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("compilation after service restart differs")
	}
}
