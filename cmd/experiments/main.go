// Command experiments regenerates the paper's evaluation tables and
// figures (Fig. 5-10 plus the §5.1 sparse validation) on the TPUv3-like
// configuration, and the LLM inference table (prefill/decode sweep, energy
// per token, multi-package scaling and a serving run).
//
// Usage:
//
//	experiments -fig all            # everything, full scale
//	experiments -fig 5 -quick       # one figure, scaled-down workloads
//	experiments -fig llm            # the LLM table (it has no quick mode)
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/npu"
	"repro/internal/service"
)

// preset is the NPU every table simulates.
const preset = "tpuv3"

type figure struct {
	name string
	desc string
	run  func(cfg npu.Config, quick bool) (fmt.Stringer, error)
}

// figures lists every table.
var figures = []figure{
	{"5", "simulation accuracy vs detailed reference", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig5(c, q) }},
	{"6", "simulation speed (TLS vs ILS vs baselines)", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig6(c, q) }},
	{"7a", "heterogeneous dense-sparse NPU", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig7a(c, q) }},
	{"7b", "multi-model tenancy", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig7b(c, q) }},
	{"8a", "fine-grained DMA", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig8a(c, q) }},
	{"8b", "conv tiling, batch 1", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig8b(c, q) }},
	{"8c", "conv tiling, small input channels", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig8c(c, q) }},
	{"9", "chiplet NPU scheduling", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig9(c, q) }},
	{"10", "training batch-size study", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.Fig10(c, q) }},
	{"sparseval", "§5.1 sparse-core TLS validation", func(c npu.Config, q bool) (fmt.Stringer, error) { return exp.SparseValidation(c, q) }},
	{"llm", "LLM prefill/decode, energy per token, multi-package scaling, serving", func(npu.Config, bool) (fmt.Stringer, error) {
		return llm(service.New(service.Config{}))
	}},
}

func main() { cli.Main("experiments", run) }

func run() error {
	fig := flag.String("fig", "all", "figure to regenerate (5, 6, 7a, 7b, 8a, 8b, 8c, 9, 10, sparseval, llm, all)")
	quick := flag.Bool("quick", false, "scaled-down workloads for fast runs")
	list := flag.Bool("list", false, "list available figures")
	flag.Parse()

	if *list {
		for _, f := range figures {
			fmt.Printf("%-10s %s\n", f.name, f.desc)
		}
		return nil
	}
	cfg, _, err := service.ResolveMachine(preset, "")
	if err != nil {
		return err
	}
	ran := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		ran = true
		fmt.Printf("=== Figure %s: %s ===\n", f.name, f.desc)
		start := time.Now()
		res, err := f.run(cfg, *quick)
		if err != nil {
			return fmt.Errorf("figure %s failed: %w", f.name, err)
		}
		fmt.Println(res.String())
		fmt.Printf("(driver wall-clock: %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown figure %q; use -list", *fig)
	}
	return nil
}
