package crosscheck

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGenerateDeterministic: the (seed, index) -> Case mapping is pure, and
// neighbouring indices yield distinct cases.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := Generate(7, i), Generate(7, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Generate(7, %d) is not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
	if reflect.DeepEqual(Generate(7, 0), Generate(7, 1)) {
		t.Fatalf("neighbouring indices generated identical cases")
	}
	if reflect.DeepEqual(Generate(7, 0), Generate(8, 0)) {
		t.Fatalf("different stream seeds generated identical cases")
	}
}

// TestWorkloadBuildAllKinds: every workload family builds a valid graph,
// and unknown kinds are rejected.
func TestWorkloadBuildAllKinds(t *testing.T) {
	specs := []WorkloadSpec{
		{Kind: "gemm", M: 3, K: 5, N: 4},
		{Kind: "gemm-epi", M: 3, K: 5, N: 4, Epilogue: "bias"},
		{Kind: "gemm-epi", M: 3, K: 5, N: 4, Epilogue: "relu"},
		{Kind: "gemm-epi", M: 3, K: 5, N: 4, Epilogue: "bias-relu"},
		{Kind: "gemm-epi", M: 3, K: 5, N: 4, Epilogue: "gelu"},
		{Kind: "chain", M: 3, K: 5, Depth: 3},
		{Kind: "mlp", Batch: 2, In: 5, Hidden: 6, Classes: 3},
		{Kind: "softmax", M: 3, K: 5, N: 4},
		{Kind: "layernorm", M: 3, K: 5, N: 4},
	}
	for _, w := range specs {
		g, err := w.Build()
		if err != nil {
			t.Fatalf("%+v: Build: %v", w, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%+v: built an invalid graph: %v", w, err)
		}
		if len(g.Outputs) == 0 {
			t.Fatalf("%+v: graph has no outputs", w)
		}
	}
	if _, err := (WorkloadSpec{Kind: "nope"}).Build(); err == nil {
		t.Fatalf("unknown workload kind built without error")
	}
}

// TestEnvDeterministic: the same case binds byte-identical leaf tensors.
func TestEnvDeterministic(t *testing.T) {
	cs := Generate(1, 0)
	g, err := cs.Workload.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs.Env(g), cs.Env(g)) {
		t.Fatalf("Env is not deterministic for %s", cs.String())
	}
}

// TestGeneratedCasesAgree is the harness self-check: a prefix of the
// standing gate's stream must pass every oracle.
func TestGeneratedCasesAgree(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	ck := &Checker{}
	fail, stats := ck.Run(1, n)
	if fail != nil {
		t.Fatalf("divergence: %v", fail)
	}
	if stats.Cases != n {
		t.Fatalf("checked %d cases, want %d", stats.Cases, n)
	}
	if len(stats.Kinds) < 2 {
		t.Fatalf("generator produced only kinds %v in %d cases", stats.Kinds, n)
	}
}

// TestGeneratedConfigsValid: every generated machine passes the core-shape
// validation the compiler enforces.
func TestGeneratedConfigsValid(t *testing.T) {
	for i := 0; i < 100; i++ {
		cs := Generate(3, i)
		if err := cs.NPU.Core.Validate(); err != nil {
			t.Fatalf("case %d generated an untargetable machine: %v", i, err)
		}
	}
}

// faultFailure produces the canonical fault-injection divergence used by the
// shrink and repro tests.
func faultFailure(t *testing.T) (*Checker, Failure) {
	t.Helper()
	ck := &Checker{Fault: PerturbTileLatency(1)}
	fail, _ := ck.Run(1, 5)
	if fail == nil {
		t.Fatalf("+1 cycle fault escaped all oracles")
	}
	if fail.Oracle != "ils-tls" {
		t.Fatalf("fault caught by oracle %q, want ils-tls (%s)", fail.Oracle, fail.Detail)
	}
	return ck, *fail
}

// TestFaultDetectedAndShrunk: the deliberate ±1-cycle perturbation is caught
// by the cycle-agreement oracle and greedily minimized.
func TestFaultDetectedAndShrunk(t *testing.T) {
	ck, fail := faultFailure(t)
	shrunk := ck.Shrink(fail)
	if shrunk.Oracle != fail.Oracle {
		t.Fatalf("shrinking changed the oracle: %q -> %q", fail.Oracle, shrunk.Oracle)
	}
	if size(shrunk.Case) > size(fail.Case) {
		t.Fatalf("shrinking grew the case: %d -> %d", size(fail.Case), size(shrunk.Case))
	}
	if got := ck.RunCase(shrunk.Case); got == nil || got.Oracle != fail.Oracle {
		t.Fatalf("shrunk case no longer fails the same oracle: %v", got)
	}
	// A negative perturbation must be caught just as well.
	neg := &Checker{Fault: PerturbTileLatency(-1)}
	if fail := neg.RunCase(Generate(1, 0)); fail == nil || fail.Oracle != "ils-tls" {
		t.Fatalf("-1 cycle fault not caught by ils-tls: %v", fail)
	}
}

// TestShrinkBudget: a one-step budget performs at most one reduction.
func TestShrinkBudget(t *testing.T) {
	ck, fail := faultFailure(t)
	ck.MaxShrinkSteps = 1
	shrunk := ck.Shrink(fail)
	// One accepted step means the result is exactly one candidate away.
	found := false
	for _, cand := range candidates(fail.Case) {
		if reflect.DeepEqual(cand, shrunk.Case) {
			found = true
			break
		}
	}
	if !found && !reflect.DeepEqual(fail.Case, shrunk.Case) {
		t.Fatalf("budget=1 shrink produced a case more than one step away")
	}
}

// TestCandidatesStrictlySmaller: every proposed reduction strictly lowers
// the size metric, so greedy shrinking terminates.
func TestCandidatesStrictlySmaller(t *testing.T) {
	for i := 0; i < 50; i++ {
		cs := Generate(11, i)
		for _, cand := range candidates(cs) {
			if size(cand) >= size(cs) {
				t.Fatalf("case %d: candidate did not shrink: %d -> %d\n%+v\n%+v",
					i, size(cs), size(cand), cs, cand)
			}
		}
	}
}

// TestReproRoundTrip: a shrunk failure serializes, reloads bit-identically,
// and replays to the same divergence on a fresh checker.
func TestReproRoundTrip(t *testing.T) {
	ck, fail := faultFailure(t)
	shrunk := ck.Shrink(fail)
	path := filepath.Join(t.TempDir(), "repro.json")
	rep := NewRepro(shrunk, true)
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, loaded) {
		t.Fatalf("repro round trip changed content:\n%+v\n%+v", rep, loaded)
	}
	// Replay on a fresh checker: the recorded Fault flag re-arms the
	// perturbation, so the divergence must reproduce.
	fresh := &Checker{}
	got := fresh.Replay(loaded)
	if got == nil || got.Oracle != shrunk.Oracle {
		t.Fatalf("replay did not reproduce oracle %q: %v", shrunk.Oracle, got)
	}
}

// TestReplayHealthyCase: a repro of a passing case replays clean.
func TestReplayHealthyCase(t *testing.T) {
	rep := Repro{FormatVersion: ReproVersion, Oracle: "ils-tls", Case: Generate(1, 0)}
	ck := &Checker{}
	if got := ck.Replay(rep); got != nil {
		t.Fatalf("healthy case diverged on replay: %v", got)
	}
}

// TestLoadReproRejects: version mismatches, bad JSON, and missing files are
// loud errors, never a silently different workload.
func TestLoadReproRejects(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"format_version": 99, "case": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(bad); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(bad); err == nil {
		t.Fatalf("malformed JSON not rejected")
	}
	if _, err := LoadRepro(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatalf("missing file not rejected")
	}
}

// TestOracleNames: the oracle set is stable and leads with the §3.8 claim.
func TestOracleNames(t *testing.T) {
	names := OracleNames()
	if len(names) != 7 || names[0] != "ils-tls" {
		t.Fatalf("unexpected oracle set %v", names)
	}
}

// TestCaseString: the one-line form carries the facts a human needs to
// triage a report.
func TestCaseString(t *testing.T) {
	cs := Generate(1, 0)
	s := cs.String()
	if !strings.Contains(s, cs.Workload.Kind) || !strings.Contains(s, "sa=") {
		t.Fatalf("case description %q is missing workload kind or machine shape", s)
	}
}

// TestFailureError: Failure implements error with oracle and detail.
func TestFailureError(t *testing.T) {
	f := &Failure{Case: Generate(1, 0), Oracle: "ils-tls", Detail: "boom"}
	if msg := f.Error(); !strings.Contains(msg, "ils-tls") || !strings.Contains(msg, "boom") {
		t.Fatalf("unhelpful failure message %q", msg)
	}
}
