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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/obs/report"
	"repro/internal/service/cache"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/topo"
)

func main() {
	togPath := flag.String("tog", "", "path to a TOG JSON file")
	netKind := flag.String("net", "sn", "interconnect model: sn (simple) or cn (cycle-accurate crossbar)")
	sched := flag.String("sched", "frfcfs", "memory scheduler: frfcfs or fcfs")
	small := flag.Bool("small", false, "use the small NPU config instead of TPUv3")
	dump := flag.Bool("stats", false, "print TOG static statistics only (no simulation)")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this JSON file")
	jsonOut := flag.Bool("json", false, "print the run report as JSON on stdout")
	cacheDir := flag.String("cache-dir", "", "cache run reports under this directory, keyed by TOG content and configuration (ignored with -trace)")
	flag.Parse()

	if *togPath == "" {
		fmt.Fprintln(os.Stderr, "usage: togsim -tog <file> [-net sn|cn] [-sched frfcfs|fcfs] [-trace out.json] [-json] [-stats]")
		os.Exit(2)
	}
	// With -json, stdout carries exactly one JSON document; the static
	// statistics and trace confirmation move to stderr.
	var logw io.Writer = os.Stdout
	if *jsonOut {
		logw = os.Stderr
	}
	data, err := os.ReadFile(*togPath)
	if err != nil {
		fatal(err)
	}
	g, err := tog.Decode(data)
	if err != nil {
		fatal(err)
	}
	stats, err := g.CollectStats()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(logw, "TOG %q: %d compute nodes (%d cycles), %d loads (%d bytes), %d stores (%d bytes)\n",
		g.Name, stats.ComputeNodes, stats.ComputeCycles, stats.LoadNodes, stats.LoadBytes, stats.StoreNodes, stats.StoreBytes)
	if *dump {
		return
	}

	cfg := npu.TPUv3Config()
	if *small {
		cfg = npu.SmallConfig()
	}
	kind := togsim.SimpleNet
	switch *netKind {
	case "cn":
		kind = togsim.CycleNet
	case "sn":
	default:
		fatal(fmt.Errorf("unknown net %q (sn, cn)", *netKind))
	}
	policy := dram.FRFCFS
	switch *sched {
	case "fcfs":
		policy = dram.FCFS
	case "frfcfs":
	default:
		fatal(fmt.Errorf("unknown sched %q (frfcfs, fcfs)", *sched))
	}
	// The run is deterministic in (TOG, config, net, scheduler), so the
	// finished report can be served content-addressed from disk. A trace
	// request always simulates for real: the trace IS the run.
	var store *cache.Disk
	var reportKey string
	if *cacheDir != "" && *traceOut == "" {
		store, err = cache.NewDisk(*cacheDir)
		if err != nil {
			fatal(err)
		}
		reportKey = "report-" + cache.CanonicalHash(string(data), cfg, *netKind, *sched)
		if blob, ok := store.Get(reportKey); ok {
			var rep report.Report
			if err := json.Unmarshal(blob, &rep); err == nil {
				fmt.Fprintf(logw, "run report served from cache (%s)\n", *cacheDir)
				render(rep, *jsonOut)
				return
			}
		}
	}

	st := core.NewStack(cfg, kind, policy, topo.Config{})
	var tw *obs.TraceWriter
	if *traceOut != "" {
		tw = obs.NewTraceWriter()
		st.AttachProbe(tw)
	}
	// Bind every tensor to a distinct region.
	bases := map[string]uint64{}
	var next uint64
	for _, t := range g.Tensors {
		bases[t] = next
		next += 1 << 28
	}
	_, in, err := st.Run([]*togsim.Job{{Name: g.Name, TOGs: []*tog.TOG{g}, Bases: []map[string]uint64{bases}}})
	if err != nil {
		fatal(err)
	}
	// The same report.Report that ptsim and the ptsimd job response render.
	rep := report.Build(cfg, in)
	if store != nil {
		// Strip host wall time so the cached artifact is fully deterministic.
		canonical := rep
		canonical.WallMs = 0
		if blob, err := json.Marshal(canonical); err == nil {
			_ = store.Put(reportKey, blob)
		}
	}
	render(rep, *jsonOut)
	if tw != nil {
		if err := tw.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(logw, "wrote trace (%d events) to %s\n", tw.Len(), *traceOut)
	}
}

func render(rep report.Report, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("simulated: %s\n", rep.Summary())
	fmt.Print(rep.Text())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "togsim:", err)
	os.Exit(1)
}
