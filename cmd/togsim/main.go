// Command togsim executes a Tile Operation Graph file (the JSON
// serialization of §3.7's ONNX-like format) on the TLS engine and prints
// the simulated cycle count, utilization breakdown, and memory statistics
// — the standalone TOGSim of Fig. 1, usable with TOGs produced by other
// compilers.
//
// Usage:
//
//	togsim -tog model.tog.json [-net cn] [-sched fcfs]
//	togsim -tog model.tog.json -trace model.trace.json -json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obs/report"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/topo"
)

func main() { cli.Main("togsim", run) }

func run() error {
	togPath := flag.String("tog", "", "path to a TOG JSON file")
	machine := cli.BindMachine(flag.CommandLine)
	out := cli.BindOutput(flag.CommandLine, "run")
	sched := flag.String("sched", "frfcfs", "memory scheduler: frfcfs or fcfs")
	dump := flag.Bool("stats", false, "print TOG static statistics only (no simulation)")
	flag.Parse()

	if *togPath == "" {
		fmt.Fprintln(os.Stderr, "usage: togsim -tog <file> [-net sn|cn] [-sched frfcfs|fcfs] [-trace out.json] [-json] [-stats]")
		os.Exit(2)
	}
	logw := out.Log() // stderr under -json

	data, err := os.ReadFile(*togPath)
	if err != nil {
		return err
	}
	g, err := tog.Decode(data)
	if err != nil {
		return err
	}
	stats, err := g.CollectStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "TOG %q: %d compute nodes (%d cycles), %d loads (%d bytes), %d stores (%d bytes)\n",
		g.Name, stats.ComputeNodes, stats.ComputeCycles, stats.LoadNodes, stats.LoadBytes, stats.StoreNodes, stats.StoreBytes)
	if *dump {
		return nil
	}

	cfg, kind, err := machine.Resolve()
	if err != nil {
		return err
	}
	policy := dram.FRFCFS
	switch *sched {
	case "fcfs":
		policy = dram.FCFS
	case "frfcfs":
	default:
		return fmt.Errorf("unknown sched %q (frfcfs, fcfs)", *sched)
	}

	st := core.NewStack(cfg, kind, policy, topo.Config{})
	if p := out.Probe(); p != nil {
		st.AttachProbe(p)
	}
	// Bind every tensor to a distinct region.
	bases := map[string]uint64{}
	var next uint64
	for _, t := range g.Tensors {
		bases[t] = next
		next += 1 << 28
	}
	in, err := st.Run([]*togsim.Job{{Name: g.Name, TOGs: []*tog.TOG{g}, Bases: []map[string]uint64{bases}}})
	if err != nil {
		return err
	}
	// The same report.Report that ptsim and the ptsimd job response render.
	if err := out.Render(report.Build(cfg, in), "simulated", true); err != nil {
		return err
	}
	return out.WriteTrace(logw)
}
