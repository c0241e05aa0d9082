package e2e

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/npu"
	"repro/internal/service"
	"repro/internal/tog"
)

// A misspelt model selector must fail loudly instead of silently running
// the default, and neither the strict-tick reference loop nor a report
// cache is a user option.
func TestTogsimRejectsUnknownSelectors(t *testing.T) {
	togsim := buildCmd(t, "cmd/togsim")
	dir := t.TempDir()
	b := tog.NewBuilder("tiny", "in")
	b.Load("in", npu.DMADesc{Rows: 8, Cols: 128}, tog.AddrExpr{}, 0, 0)
	b.Wait(0)
	b.Compute(tog.UnitSA, 20)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := tog.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	togPath := filepath.Join(dir, "tiny.tog.json")
	if err := os.WriteFile(togPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	togsimRun := func(extra ...string) (string, error) {
		stdout, stderr, err := run(togsim, append([]string{"-tog", togPath, "-small"}, extra...)...)
		return stdout + stderr, err
	}

	if out, err := togsimRun("-net", "cn", "-sched", "fcfs"); err != nil {
		t.Fatalf("valid selectors: %v\n%s", err, out)
	}
	// -net resolves through the service, so a bad one fails with the
	// resolver's own message, as a ptsimd job with that net would.
	_, _, badNet := service.ResolveMachine("small", "xyz")
	if badNet == nil {
		t.Fatal("the resolver accepted -net xyz")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-net", "xyz"}, "togsim: " + badNet.Error()},
		{[]string{"-sched", "foo"}, `unknown sched "foo"`},
		{[]string{"-strict"}, "flag provided but not defined"},
		{[]string{"-cache-dir", dir}, "flag provided but not defined"},
	} {
		out, err := togsimRun(tc.args...)
		if err == nil {
			t.Fatalf("togsim %v must exit non-zero, got:\n%s", tc.args, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("togsim %v: want %q in the output, got:\n%s", tc.args, tc.want, out)
		}
	}
}
