package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// ptsimBin is the command under test, built once by TestMain.
var ptsimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ptsim-test")
	if err != nil {
		panic(err)
	}
	ptsimBin = filepath.Join(dir, "ptsim")
	if out, err := exec.Command("go", "build", "-o", ptsimBin, ".").CombinedOutput(); err != nil {
		panic("building ptsim: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// ptsimTopo runs the command with the two-package tensor-parallel spec plus
// extra flags and returns stdout, stderr and the error.
func ptsimTopo(extra ...string) (string, string, error) {
	args := append([]string{"-model", "decoder-tiny", "-ctx", "8", "-small",
		"-topology", "pkg2", "-parallel", "tensor"}, extra...)
	cmd := exec.Command(ptsimBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// A multi-package run takes the same funnel as a single-package one, so
// the run knobs apply to it: -max-cycles bounds it, -trace records it, and
// -json renders its topology section.
func TestTopologyRunHonoursRunFlags(t *testing.T) {
	if _, stderr, err := ptsimTopo("-max-cycles", "100"); err == nil {
		t.Fatal("-max-cycles 100 must abort a ~10k-cycle run with a non-zero exit")
	} else if !strings.Contains(stderr, "exceeded max cycles (100)") || !strings.Contains(stderr, "unfinished") {
		t.Fatalf("want the deadlock diagnostic on stderr, got %q", stderr)
	}

	trace := filepath.Join(t.TempDir(), "pkg2.trace.json")
	if _, stderr, err := ptsimTopo("-trace", trace); err != nil {
		t.Fatalf("-trace on a multi-package topology: %v\n%s", err, stderr)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace is not a non-empty Perfetto document: %v", err)
	}

	stdout, stderr, err := ptsimTopo("-json")
	if err != nil {
		t.Fatalf("-json: %v\n%s", err, stderr)
	}
	var rep struct {
		Topology *json.RawMessage `json:"topology"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not one JSON document: %v", err)
	}
	if rep.Topology == nil {
		t.Fatal("want a topology section in the -json report")
	}

	if _, _, err := ptsimTopo("-autotune"); err == nil {
		t.Fatal("-autotune stays unsupported on multi-package topologies")
	}
}

// ptsim validates its flags with the daemon's resolver before it compiles
// anything: a spec ptsimd would reject at admission never starts a run.
func TestRejectsBeforeCompiling(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-max-cycles", "-1"}, "negative max_cycles"},
		{[]string{"-net", "xyz"}, `unknown net "xyz"`},
		{[]string{"-dma", "xyz"}, `unknown dma mode "xyz"`},
		{[]string{"-model", "nope"}, `unknown model "nope"`},
	} {
		cmd := exec.Command(ptsimBin, append([]string{"-model", "gemm", "-n", "64", "-small"}, tc.flags...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("%v: want a non-zero exit", tc.flags)
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: want %q on stderr, got %q", tc.flags, tc.want, stderr.String())
		}
		if strings.Contains(stdout.String(), "compiled") {
			t.Errorf("%v: rejected only after compiling:\n%s", tc.flags, stdout.String())
		}
	}
}

// Both simulation modes run on the same stack, so -max-cycles bounds an ILS
// run exactly as it bounds a TLS run.
func TestMaxCyclesBoundsEveryMode(t *testing.T) {
	for _, mode := range []string{"tls", "ils"} {
		cmd := exec.Command(ptsimBin, "-model", "gemm", "-n", "64", "-small", "-mode", mode, "-max-cycles", "10")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("-mode %s: -max-cycles 10 must abort a ~35k-cycle run with a non-zero exit:\n%s", mode, stdout.String())
			continue
		}
		if !strings.Contains(stderr.String(), "exceeded max cycles (10)") {
			t.Errorf("-mode %s: want the max-cycles diagnostic on stderr, got %q", mode, stderr.String())
		}
	}
}
