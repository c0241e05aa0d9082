// Command ptsim is the end-to-end model simulator: pick a built-in model,
// compile it for the target NPU, and simulate it in TLS (optionally ILS),
// printing cycles, simulated time, and compiler statistics — the
// PyTorchSim workflow of Fig. 1 from the command line.
//
// Model building and NPU selection live in internal/service/modelzoo, the
// same path the ptsimd daemon uses, so a CLI run and a service job of the
// same spec are bit-identical.
//
// Usage:
//
//	ptsim -model resnet18 -batch 1
//	ptsim -model gemm -n 1024 -mode ils
//	ptsim -model bert-base -seq 512 -net cn -dump-tog out.json
//	ptsim -model gemm -n 512 -small -report -trace gemm.trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs/report"
	"repro/internal/service/cache"
	"repro/internal/service/modelzoo"
	"repro/internal/tog"
)

func main() { cli.Main("ptsim", run) }

func run() error {
	job := cli.BindJob(flag.CommandLine, "gemm")
	out := cli.BindOutput(flag.CommandLine, "TLS run")
	batch := flag.Int("batch", 1, "batch size")
	n := flag.Int("n", 512, "GEMM dimension (model=gemm)")
	seq := flag.Int("seq", 512, "sequence length (BERT models)")
	ctx := flag.Int("ctx", 128, "context length (decoder models)")
	prefill := flag.Bool("prefill", false, "decoder models: simulate the prompt prefill pass instead of a decode step")
	mode := flag.String("mode", "tls", "simulation mode: tls or ils")
	fusion := flag.Bool("fusion", true, "enable operator fusion")
	convOpt := flag.Bool("convopt", true, "enable conv layout optimization")
	dmaMode := flag.String("dma", "selective", "DMA mode: coarse, fine, selective")
	dumpTOG := flag.String("dump-tog", "", "write the first TOG to this JSON file")
	dumpKernels := flag.String("dump-kernels", "", "write each compiled kernel's assembly into this directory")
	autotune := flag.Bool("autotune", false, "sweep tile-size candidates through TLS and report the best (tls mode)")
	tuneObjective := flag.String("autotune-objective", "cycles", "autotune winner metric: cycles or energy-delay (cycles x total energy)")
	showReport := flag.Bool("report", false, "print the full utilization and stall breakdown (tls mode)")
	flag.Parse()

	switch *mode {
	case "tls":
	case "ils":
		if out.Trace != "" || *showReport || out.JSON || *autotune {
			return fmt.Errorf("-trace, -report, -json, and -autotune require -mode tls")
		}
	default:
		return fmt.Errorf("unknown mode %q (tls, ils)", *mode)
	}
	logw := out.Log()

	// The daemon's resolver validates the flags, so ptsim accepts exactly
	// the specs a ptsimd job would.
	spec := job.Spec()
	spec.Batch, spec.N, spec.Seq, spec.Ctx, spec.Prefill = *batch, *n, *seq, *ctx, *prefill
	spec.DMA, spec.Fusion, spec.ConvOpt = *dmaMode, fusion, convOpt
	r, err := spec.Resolve()
	if err != nil {
		return err
	}
	multi := r.Topo.Packages() > 1
	if multi {
		if *mode != "tls" {
			return fmt.Errorf("-topology %s requires -mode tls", job.Topology)
		}
		if *autotune {
			return fmt.Errorf("-autotune is not supported with multi-package topologies")
		}
	}
	g, err := modelzoo.BuildRankGraph(r.Spec, r.Topo.Packages())
	if err != nil {
		return err
	}

	sim := core.NewSimulator(r.Cfg, r.Opts)
	sim.MaxCycles = r.MaxCycles
	sim.Topo = r.Topo
	switch *tuneObjective {
	case "cycles":
	case "energy-delay":
		sim.Objective = core.TuneEnergyDelay
	default:
		return fmt.Errorf("unknown autotune objective %q (cycles, energy-delay)", *tuneObjective)
	}
	var disk *cache.Disk
	if job.CacheDir != "" {
		var err error
		if disk, err = cache.NewDisk(job.CacheDir); err != nil {
			return fmt.Errorf("opening cache dir: %w", err)
		}
		sim.Compiler.Cache().SetStore(disk)
	}
	sim.Probe = out.Probe()
	comp, err := sim.Compile(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "compiled %q: %d layers, %d unique kernels measured, %.1f MB DRAM footprint\n",
		g.Name, len(comp.TOGs), sim.Compiler.MeasureCount(), float64(comp.TotalBytes)/1e6)
	if disk != nil {
		hits, misses := disk.Stats()
		fmt.Fprintf(logw, "disk cache: %d hits, %d misses (%s)\n", hits, misses, job.CacheDir)
	}

	if *dumpTOG != "" && len(comp.TOGs) > 0 {
		data, err := tog.Encode(comp.TOGs[0])
		if err != nil {
			return err
		}
		if err := os.WriteFile(*dumpTOG, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(logw, "wrote first TOG to %s\n", *dumpTOG)
	}
	if *dumpKernels != "" {
		if err := os.MkdirAll(*dumpKernels, 0o755); err != nil {
			return err
		}
		for id, p := range comp.Kernels {
			path := filepath.Join(*dumpKernels, sanitize(id)+".s")
			if err := os.WriteFile(path, []byte(p.Dump()), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(logw, "wrote %d kernels to %s (reassemble with cmd/asm)\n", len(comp.Kernels), *dumpKernels)
	}

	switch *mode {
	case "ils":
		rep, ils, err := sim.SimulateILS(comp, r.Net)
		if err != nil {
			return err
		}
		fmt.Printf("ILS: %s; %d dynamic instructions across %d kernel instances\n",
			rep.String(), ils.Instrs, ils.KernelRuns)
	case "tls":
		if multi {
			fmt.Fprintf(logw, "topology %s: %d packages x %d cores, %s parallelism, one rank per package\n",
				r.Topo.Name, r.Topo.Packages(), r.Topo.CoresPerPackage, r.Spec.Parallel)
		}
		rep, err := sim.SimulateTLS(comp, r.Net)
		if err != nil {
			return err
		}
		if *autotune {
			opts, _, tuned, err := sim.AutoTune(g, nil, r.Net)
			if err != nil {
				return err
			}
			fmt.Fprintf(logw, "autotune: best MaxMt=%d -> %d cycles (heuristic: %d, %+.1f%%)\n",
				opts.MaxMt, tuned.Cycles, rep.Cycles,
				100*float64(tuned.Cycles-rep.Cycles)/float64(rep.Cycles))
			rep = tuned
		}
		// One formatter for every surface: the CLI summary, -report, -json,
		// and the ptsimd job response all render the same report.Report;
		// the compact default leaves out the per-job breakdown -report adds.
		if err := out.Render(report.Build(rep.Machine, rep.Inputs()), "TLS", *showReport); err != nil {
			return err
		}
		return out.WriteTrace(logw)
	}
	return nil
}

// sanitize maps a kernel id to a safe filename.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, id)
}
