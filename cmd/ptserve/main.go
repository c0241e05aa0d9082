// Command ptserve is the LLM serving simulator: it synthesizes a seeded
// Poisson trace of generation requests and replays it through the
// continuous-batching scheduler, timing every prefill pass and decode step
// on the NPU timing model (each distinct iteration shape is simulated once
// and replayed; -trace simulates every iteration). The report is
// serving-shaped — TTFT and per-token latency percentiles, tokens/sec,
// batch occupancy — plus the compile-cache behaviour of the autoregressive
// loop (decode steps after the first at a given shape are 100% cache hits).
//
// A ptserve run is a ptsimd serving job run in-process: the flags fill a
// service.JobSpec, so a zero-valued serving flag means the job API's
// default (e.g. -requests 0 serves 4 requests) and a negative one is
// rejected.
//
// Usage:
//
//	ptserve -model decoder-small -requests 8 -rate 2000 -gen 16
//	ptserve -model decoder-tiny -small -requests 4 -prompt 8 -gen 8 -json
//	ptserve -model decoder-base -max-batch 8 -kv-block 128 -cache-dir ~/.ptsim-cache
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ptserve:", err)
		os.Exit(1)
	}
}

func run() error {
	model := flag.String("model", "decoder-small", "decoder model to serve (decoder-tiny, decoder-small, decoder-base)")
	requests := flag.Int("requests", 8, "number of requests in the arrival trace")
	rate := flag.Float64("rate", 1000, "Poisson arrival rate in requests per simulated second")
	seed := flag.Int64("seed", 1, "arrival-trace seed (same seed, same trace, same report)")
	prompt := flag.Int("prompt", 16, "prompt tokens per request")
	ctxDist := flag.String("ctx-dist", "", "per-request prompt-length distribution: fixed (default) or uniform:lo,hi (seeded)")
	gen := flag.Int("gen", 8, "tokens to generate per request")
	topology := flag.String("topology", "single", "topology preset: single, pkg2, or meshXxY")
	parStrat := flag.String("parallel", "none", "cross-package parallelism for multi-package topologies (tensor)")
	maxBatch := flag.Int("max-batch", 4, "continuous-batch capacity")
	kvBlock := flag.Int("kv-block", 64, "KV-cache page size in tokens (decode shapes pad up to this)")
	netKind := flag.String("net", "sn", "interconnect: sn or cn")
	small := flag.Bool("small", false, "use the small NPU config")
	maxCycles := flag.Int64("max-cycles", 0, "per-iteration deadlock guard (0 = engine default)")
	cacheDir := flag.String("cache-dir", "", "persist compile artifacts and kernel latencies under this directory")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace of the whole serving run to this JSON file (per-iteration spans stitched onto one timeline)")
	showReport := flag.Bool("report", false, "print the per-request breakdown")
	jsonOut := flag.Bool("json", false, "print the serving report as JSON on stdout")
	flag.Parse()

	npuName := "tpuv3"
	if *small {
		npuName = "small"
	}
	// The daemon's own serving job: the same resolver validates the flags
	// (a zero flag means the wire default) and the same body runs it, so a
	// ptserve run and a ptsimd serve job of one spec report the same thing.
	spec := service.JobSpec{
		Model: *model, Topology: *topology, Parallel: *parStrat,
		NPU: npuName, Net: *netKind, MaxCycles: *maxCycles,
		Serve: &service.ServeSpec{
			Requests: *requests, RatePerSec: *rate, Seed: *seed, CtxDist: *ctxDist,
			Prompt: *prompt, Output: *gen, MaxBatch: *maxBatch, KVBlock: *kvBlock,
		},
	}
	// The same content-addressed compile cache the daemon uses: prefill
	// compiles once per prompt shape, decode once per (batch, padded-KV)
	// shape, and with -cache-dir the artifacts outlive this process.
	svc := service.New(service.Config{})
	if *cacheDir != "" {
		if err := svc.EnableDiskCache(*cacheDir); err != nil {
			return fmt.Errorf("opening cache dir: %w", err)
		}
	}
	// probe stays a nil interface without -trace: a nil *TraceWriter in it
	// would be a non-nil probe and turn off the per-shape replay.
	var probe obs.Probe
	var tw *obs.TraceWriter
	if *traceOut != "" {
		tw = obs.NewTraceWriter()
		probe = tw
	}
	res, err := svc.Simulate(spec, probe)
	if err != nil {
		return err
	}
	rep := *res.ServeReport
	if tw != nil {
		if err := tw.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote trace (%d events) to %s\n", tw.Len(), *traceOut)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	if *showReport {
		fmt.Print(rep.Text())
	} else {
		brief := rep
		brief.PerRequest = nil
		fmt.Print(brief.Text())
	}
	fmt.Printf("host: %.0f ms wall\n", rep.WallMs)
	return nil
}
