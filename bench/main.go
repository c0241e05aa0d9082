// Command bench is the repository's benchmark: seven workloads over the
// compiler -> TOG -> TLS engine -> service -> fleet stack, measured end to
// end with tracing off and layer by layer in a separate traced run.
//
//	go run -C bench .                          every workload, untraced, one child process each
//	go run -C bench . -trace 1                 the same plus a traced run of each, with trace_overhead
//	go run -C bench . -workload svc.mix-closed -seed 7 -seconds 10 -trace 0
//	go run -C bench . -compare out/a.json out/b.json
//	go run -C bench . -pin                     rewrite expected.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed section measures")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics); without -workload, 1 adds a traced run of each workload")
	quick := flag.Bool("quick", false, "tiny shapes, for smoke tests")
	sets := flag.Int("sets", 1, "without -workload: how many times to run the whole set (3 or more let -compare see the spread)")
	out := flag.String("out", filepath.Join("out", "result.json"), "without -workload: where to write the result file")
	compare := flag.Bool("compare", false, "compare two result files given as arguments: A.json B.json")
	pin := flag.Bool("pin", false, "run every workload once and rewrite expected.json")
	jsonOut := flag.String("json", "", "with -workload: also write the run as JSON to this file (how the whole-set run collects its children)")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *pin:
		return pinAll()
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	case *seconds < 0:
		return fmt.Errorf("-seconds must not be negative")
	}
	prof := fullProfile
	if *quick {
		prof = quickProfile
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace == 1, *quick, *sets, *out)
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	// Fail before measuring when the checkout is incomplete: the benchmark
	// is only meaningful next to the BENCHMARK.json that declares it.
	if _, err := repoRoot(); err != nil {
		return err
	}
	want, err := loadExpected()
	if err != nil {
		return err
	}
	host := stampHost()
	warnOneCPU(host)
	rc := &runCtx{name: w.Name, seed: *seed, seconds: *seconds, prof: prof, want: want.forProfile(prof)}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	o, err := w.run(rc)
	if err != nil {
		return err
	}
	res := o.result(rc)
	if rc.traced() {
		if err := os.MkdirAll("out", 0o755); err != nil {
			return err
		}
		if err := rc.tr.writeFile(filepath.Join("out", "trace-"+w.Name+".json")); err != nil {
			return err
		}
	}
	res.print(os.Stdout, w, host, rc)
	if *jsonOut != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.wire())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runResult is one workload run. Metrics holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Ops       int                `json:"ops"`        // samples behind op_p50_ms and op_p90_ms
	SetupReps int                `json:"setup_reps"` // samples behind setup_s
	TimedS    float64            `json:"timed_s"`
	OpP50Ms   float64            `json:"op_p50_ms"` // also on traced runs, for trace_overhead
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

func (o *outcome) result(rc *runCtx) *runResult {
	r := &runResult{
		Workload: rc.name, Seed: rc.seed, Traced: rc.traced(),
		Attempted: o.attempted, Failed: o.failed,
		Ops: len(o.opMs), SetupReps: len(o.setupS), TimedS: o.timedS, OpP50Ms: median(o.opMs),
		Problems: o.problems,
		Metrics:  map[string]float64{},
	}
	if o.attempted == 0 || len(o.opMs) == 0 {
		r.Attempted = max(r.Attempted, 1)
		r.Failed = max(r.Failed, 1)
		r.Problems = append(r.Problems, "no operation completed")
	}
	r.Correct = r.Failed == 0
	if rc.traced() {
		o.layer["trace.self_sum_ratio"] = selfSumRatio(rc.tr.snapshot())
		for _, m := range perLayer {
			r.Metrics[m.Name] = o.layer[m.Name]
		}
		return r
	}
	r.Metrics["op_p50_ms"] = r.OpP50Ms
	r.Metrics["op_p90_ms"] = percentile(o.opMs, 90)
	if o.timedS > 0 {
		r.Metrics["ops_per_s"] = float64(len(o.opMs)) / o.timedS
	}
	r.Metrics["setup_s"] = median(o.setupS)
	r.Metrics["rss_p90_mb"] = percentile(o.rssMB, 90)
	return r
}

// wire is the one-line object the driver reads.
func (r *runResult) wire() map[string]any {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, m := range defs {
		metrics[m.Name] = map[string]any{"value": r.Metrics[m.Name], "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// print writes the run for a human: every metric by name with its unit and
// the number of samples behind the timings.
func (r *runResult) print(w *os.File, wl workload, host hostStamp, rc *runCtx) {
	fmt.Fprintf(w, "workload %s  seed %d  %g s  profile %s  traced %v\n", wl.Name, r.Seed, rc.seconds, rc.prof.name, r.Traced)
	fmt.Fprintf(w, "  why: %s\n", wl.Why)
	fmt.Fprintf(w, "  host: host_cpus=%d GOMAXPROCS=%d %s kernel %s commit %s\n", host.HostCPUs, host.GOMAXPROCS, host.GoVersion, host.Kernel, host.Commit)
	fmt.Fprintf(w, "  ops %d in %.2f s timed (%d beyond p90), set-up repeated %d times, peak RSS %.0f MB\n", r.Ops, r.TimedS, samplesBeyond(r.Ops, 90), r.SetupReps, peakRSSMB())
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		if v := r.Metrics[m.Name]; v != 0 || !r.Traced {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s (%s is better)\n", m.Name, v, m.Unit, m.Better)
		}
	}
	fmt.Fprintf(w, "  fail_ratio %d/%d  simulated results match expected.json: %v\n", r.Failed, r.Attempted, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	if r.Traced {
		self := selfTimes(rc.tr.snapshot())
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  self time by span name (s):")
		for _, n := range names {
			fmt.Fprintf(w, " %s=%.3f", n, self[n])
		}
		fmt.Fprintln(w)
	}
}
