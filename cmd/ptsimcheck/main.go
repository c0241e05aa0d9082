// Command ptsimcheck is the cross-simulator differential checker: it
// generates seeded random workloads (kernel shapes, model fragments, NPU
// configurations, compiler options) and holds every simulator in the
// repository against the others — ILS vs TLS cycle agreement (the paper's
// §3.8 determinism claim), funcsim numerics vs the host reference, and the
// bit-identical metamorphic invariants (event vs strict engine, serial vs
// parallel compile, cold vs warm artifact store, plain vs instrumented
// runs). A divergence is shrunk to a minimal case and written as a JSON
// repro replayable with -replay, turning any disagreement into a
// one-command bug report.
//
// Usage:
//
//	ptsimcheck -seed 1 -n 200            # the standing gate
//	ptsimcheck -replay repro.json        # re-run a recorded divergence
//	ptsimcheck -seed 1 -n 20 -fault      # self-test: inject a ±1-cycle
//	                                     # latency fault; MUST be detected
//	ptsimcheck -fleet -seed 1            # 1-node vs 3-node fleet bit-identity
//	ptsimcheck -fault-fleet              # self-test: corrupt one member's
//	                                     # response; MUST be detected
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/crosscheck"
)

func main() { cli.Main("ptsimcheck", run) }

func run() error {
	seed := flag.Uint64("seed", 1, "generation stream seed")
	n := flag.Int("n", 200, "number of cases to generate and check")
	replay := flag.String("replay", "", "replay a recorded repro JSON file instead of generating")
	serveCheck := flag.Bool("serve", false, "run the serve-determinism oracle (same seed fresh, probed and on a warmed service) instead of the case generator")
	topoCheck := flag.Bool("topo", false, "run the topology-parallel oracle (data/tensor-parallel numerics vs single-core funcsim + engine bit-identity on multi-package fabrics) instead of the case generator")
	fleetCheck := flag.Bool("fleet", false, "run the fleet-determinism oracle (seeded mixed batch through a 1-node service vs a 3-node sharded fleet, bit-identical JobResults) instead of the case generator")
	faultFleet := flag.Bool("fault-fleet", false, "self-test: corrupt one fleet member's response; the run SUCCEEDS only if the fleet oracle detects it (implies -fleet)")
	fault := flag.Bool("fault", false, "self-test: perturb one tile latency by +1 cycle after every compile; the run SUCCEEDS only if an oracle detects it")
	out := flag.String("out", ".", "directory for divergence repro files")
	verbose := flag.Bool("v", false, "log every generated case")
	flag.Parse()

	ck := &crosscheck.Checker{}
	if *verbose {
		ck.Log = os.Stderr
	}
	if *fault {
		ck.Fault = crosscheck.PerturbTileLatency(1)
	}

	if *replay != "" {
		return runReplay(ck, *replay)
	}
	if *serveCheck {
		start := time.Now()
		if err := crosscheck.CheckServe(int64(*seed)); err != nil {
			return err
		}
		fmt.Printf("ok: serve-determinism (seed %d, replay, probed and warmed legs) in %v\n",
			*seed, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if *fleetCheck || *faultFleet {
		start := time.Now()
		if err := crosscheck.CheckFleet(int64(*seed), *faultFleet); err != nil {
			return err
		}
		if *faultFleet {
			fmt.Printf("fault-injection self-test passed: the fleet oracle caught the corrupted member response (seed %d) in %v\n",
				*seed, time.Since(start).Round(time.Millisecond))
			return nil
		}
		fmt.Printf("ok: fleet-determinism (seed %d, 1-node vs 3-node sharded fleet, mixed batch incl. serve + pkg2-tensor) in %v\n",
			*seed, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if *topoCheck {
		start := time.Now()
		if err := crosscheck.CheckTopology(*seed, *n); err != nil {
			return err
		}
		fmt.Printf("ok: topology-parallel (%d cases, data/tensor over pkg2+mesh, funcsim numerics + engine bit-identity) in %v\n",
			*n, time.Since(start).Round(time.Millisecond))
		return nil
	}

	start := time.Now()
	fail, stats := ck.Run(*seed, *n)
	if fail == nil {
		if *fault {
			return fmt.Errorf("fault injection escaped: %d faulted cases passed every oracle — the oracles have no teeth", stats.Cases)
		}
		fmt.Printf("ok: %d cases, 0 divergences across oracles [%s] in %v (%s)\n",
			stats.Cases, strings.Join(crosscheck.OracleNames(), " "), time.Since(start).Round(time.Millisecond), kindSummary(stats))
		return nil
	}

	fmt.Printf("DIVERGENCE after %d cases: oracle %q\n  %s\n  %s\n",
		stats.Cases, fail.Oracle, fail.Detail, fail.Case.String())
	shrunk := ck.Shrink(*fail)
	fmt.Printf("shrunk: %s\n  %s\n", shrunk.Case.String(), shrunk.Detail)

	path := filepath.Join(*out, fmt.Sprintf("ptsimcheck-repro-%s-seed%d.json", shrunk.Oracle, *seed))
	if err := crosscheck.NewRepro(shrunk, *fault).Write(path); err != nil {
		return fmt.Errorf("writing repro: %w", err)
	}
	fmt.Printf("repro written to %s (replay: ptsimcheck -replay %s)\n", path, path)

	if *fault {
		// Self-test succeeded: the deliberate fault was detected and shrunk.
		fmt.Printf("fault-injection self-test passed: oracle %q caught the injected fault\n", shrunk.Oracle)
		return nil
	}
	return fmt.Errorf("simulators diverge (oracle %s)", shrunk.Oracle)
}

func runReplay(ck *crosscheck.Checker, path string) error {
	rep, err := crosscheck.LoadRepro(path)
	if err != nil {
		return err
	}
	fail := ck.Replay(rep)
	if fail == nil {
		fmt.Printf("repro no longer diverges (recorded oracle %q: %s)\n", rep.Oracle, rep.Detail)
		return nil
	}
	fmt.Printf("reproduced: oracle %q\n  %s\n  %s\n", fail.Oracle, fail.Detail, fail.Case.String())
	return fmt.Errorf("divergence reproduced (oracle %s)", fail.Oracle)
}

func kindSummary(st crosscheck.Stats) string {
	kinds := make([]string, 0, len(st.Kinds))
	for k := range st.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s:%d", k, st.Kinds[k])
	}
	return strings.Join(parts, " ")
}
