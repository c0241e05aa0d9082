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
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/service"
)

func main() { cli.Main("ptserve", run) }

func run() error {
	job := cli.BindJob(flag.CommandLine, "decoder-small")
	out := cli.BindOutput(flag.CommandLine, "serving run")
	requests := flag.Int("requests", 8, "number of requests in the arrival trace")
	rate := flag.Float64("rate", 1000, "Poisson arrival rate in requests per simulated second")
	seed := flag.Int64("seed", 1, "arrival-trace seed (same seed, same trace, same report)")
	prompt := flag.Int("prompt", 16, "prompt tokens per request")
	ctxDist := flag.String("ctx-dist", "", "per-request prompt-length distribution: fixed (default) or uniform:lo,hi (seeded)")
	gen := flag.Int("gen", 8, "tokens to generate per request")
	maxBatch := flag.Int("max-batch", 4, "continuous-batch capacity")
	kvBlock := flag.Int("kv-block", 64, "KV-cache page size in tokens (decode shapes pad up to this)")
	showReport := flag.Bool("report", false, "print the per-request breakdown")
	flag.Parse()

	// The daemon's own serving job: the same resolver validates the flags
	// (a zero flag means the wire default) and the same body runs it, so a
	// ptserve run and a ptsimd serve job of one spec report the same thing.
	spec := job.Spec()
	spec.Serve = &service.ServeSpec{
		Requests: *requests, RatePerSec: *rate, Seed: *seed, CtxDist: *ctxDist,
		Prompt: *prompt, Output: *gen, MaxBatch: *maxBatch, KVBlock: *kvBlock,
	}
	// The same content-addressed compile cache the daemon uses: prefill
	// compiles once per prompt shape, decode once per (batch, padded-KV)
	// shape, and with -cache-dir the artifacts outlive this process.
	svc := service.New(service.Config{})
	if job.CacheDir != "" {
		if err := svc.EnableDiskCache(job.CacheDir); err != nil {
			return fmt.Errorf("opening cache dir: %w", err)
		}
	}
	// Without -trace the probe is nil, which keeps the per-shape replay on.
	res, err := svc.Simulate(spec, out.Probe())
	if err != nil {
		return err
	}
	rep := *res.ServeReport
	if err := out.WriteTrace(os.Stderr); err != nil {
		return err
	}

	if out.JSON {
		return out.Encode(rep)
	}
	if !*showReport {
		rep.PerRequest = nil
	}
	fmt.Print(rep.Text())
	fmt.Printf("host: %.0f ms wall\n", rep.WallMs)
	return nil
}
