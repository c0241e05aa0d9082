package e2e

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs/report"
)

// tinyServe is the three-request serving scenario the trace and energy
// checks run; serveScenario is the four-request one that replays decode
// shapes.
var (
	tinyServe = []string{"-model", "decoder-tiny", "-small", "-requests", "3", "-prompt", "8", "-gen", "4",
		"-rate", "200000", "-max-batch", "2", "-kv-block", "16", "-seed", "1", "-json"}
	serveScenario = []string{"-model", "decoder-tiny", "-small", "-requests", "4", "-prompt", "8", "-gen", "8",
		"-rate", "200000", "-max-batch", "4", "-kv-block", "32", "-seed", "1", "-json"}
)

// ptserveTiny runs ptserve on the tiny decoder plus extra flags.
func ptserveTiny(t *testing.T, extra ...string) (string, string, error) {
	args := append([]string{"-model", "decoder-tiny", "-small", "-prompt", "8", "-gen", "3"}, extra...)
	return run(buildCmd(t, "cmd/ptserve"), args...)
}

// ptserve validates its flags with the daemon's resolver: a spec ptsimd
// would reject at admission is an error here too, never a panic.
func TestPtserveRejectsWhatTheDaemonRejects(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-requests", "-1"}, "negative serve parameter"},
		{[]string{"-max-batch", "-2"}, "negative serve parameter"},
		{[]string{"-max-cycles", "-1"}, "negative max_cycles"},
		{[]string{"-net", "xyz"}, `unknown net "xyz"`},
		{[]string{"-ctx-dist", "zipf"}, "zipf"},
		{[]string{"-model", "gemm"}, "need a decoder model"},
		{[]string{"-model", "decoder-huge"}, `unknown model "decoder-huge"`},
		{[]string{"-topology", "pkg2"}, "requires tensor parallelism"},
	} {
		_, stderr, err := ptserveTiny(t, tc.flags...)
		if err == nil {
			t.Errorf("%v: want a non-zero exit", tc.flags)
			continue
		}
		if !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic") {
			t.Errorf("%v: want %q on stderr and no panic, got %q", tc.flags, tc.want, stderr)
		}
	}
}

// A zero-valued serving flag means the wire default, as it does in a
// ptsimd serve job: -requests 0 serves ServeSpec's default of 4 requests.
func TestPtserveZeroFlagMeansWireDefault(t *testing.T) {
	stdout, stderr, err := ptserveTiny(t, "-requests", "0", "-rate", "200000", "-max-batch", "2", "-kv-block", "16")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "4 requests") {
		t.Fatalf("want the default 4 requests served, got:\n%s", stdout)
	}
}

// Every request is served with positive throughput and latencies, every
// decode step past the first at a (batch, padded-KV) shape counts as a
// hit, and the default run, which replays repeated shapes, reports
// exactly what -trace, which simulates every iteration, reports.
func TestPtserveReplayMatchesFullSimulation(t *testing.T) {
	ptserve := buildCmd(t, "cmd/ptserve")
	var rep, traced report.ServeReport
	runJSON(t, &rep, ptserve, serveScenario...)
	runJSON(t, &traced, ptserve, append(serveScenario, "-trace", filepath.Join(t.TempDir(), "t.json"))...)

	if rep.Requests != 4 || rep.TokensOut != 32 {
		t.Fatalf("want 4 finished requests and 32 generated tokens, got %d and %d", rep.Requests, rep.TokensOut)
	}
	if rep.TokensPerSec <= 0 || rep.TTFTp50Ms <= 0 || rep.TPOTp50Ms <= 0 {
		t.Fatalf("tokens/s %v, TTFT p50 %v ms and TPOT p50 %v ms must be positive", rep.TokensPerSec, rep.TTFTp50Ms, rep.TPOTp50Ms)
	}
	steps, shapes, hits := rep.DecodeSteps, int64(rep.DecodeShapes), rep.DecodeHits
	if steps <= shapes {
		t.Fatalf("degenerate scenario: %d decode steps over %d shapes never replays", steps, shapes)
	}
	if hits != steps-shapes {
		t.Fatalf("decode cache hits %d, want %d (%d steps over %d shapes)", hits, steps-shapes, steps, shapes)
	}
	for _, r := range rep.PerRequest {
		if r.Finished <= r.ArrivalCycle {
			t.Fatalf("request %s finished at cycle %d, not after its arrival at %d", r.ID, r.Finished, r.ArrivalCycle)
		}
	}

	rep.WallMs, traced.WallMs = 0, 0
	if !reflect.DeepEqual(rep, traced) {
		a, _ := json.Marshal(traced)
		b, _ := json.Marshal(rep)
		t.Fatalf("the traced run differs from the default run:\ntraced:  %s\ndefault: %s", a, b)
	}
}

// A serving trace is stitched: iteration-local spans are shifted onto one
// clock, so the last span ends near the makespan, far past the length of
// any one iteration.
func TestPtserveTraceIsStitched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.trace.json")
	var rep report.ServeReport
	runJSON(t, &rep, buildCmd(t, "cmd/ptserve"), append(tinyServe, "-trace", path)...)
	var lastEnd int64
	for _, ev := range checkTrace(t, path, true) {
		if ev.Ph == "X" {
			lastEnd = max(lastEnd, ev.TS+ev.Dur)
		}
	}
	if float64(lastEnd) < 0.5*float64(rep.Cycles) || lastEnd > rep.Cycles {
		t.Fatalf("stitched spans end at %d, serving makespan is %d cycles", lastEnd, rep.Cycles)
	}
}

// A serving report prices its tokens: total energy and energy per token
// are positive, and the prefill and decode phases sum to the total.
func TestPtserveEnergyByPhase(t *testing.T) {
	var rep report.ServeReport
	runJSON(t, &rep, buildCmd(t, "cmd/ptserve"), tinyServe...)
	if rep.TotalEnergyMJ <= 0 || rep.EnergyPerTokenMJ <= 0 {
		t.Fatalf("total_energy_mj %v and energy_per_token_mj %v must be positive", rep.TotalEnergyMJ, rep.EnergyPerTokenMJ)
	}
	if rep.PrefillEnergy == nil || rep.DecodeEnergy == nil {
		t.Fatal("want prefill_energy and decode_energy sections")
	}
	if sum := rep.PrefillEnergy.TotalMilliJ + rep.DecodeEnergy.TotalMilliJ; sum != rep.TotalEnergyMJ {
		t.Fatalf("phase energies sum to %v, total_energy_mj is %v", sum, rep.TotalEnergyMJ)
	}
}
