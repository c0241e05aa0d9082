package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// ptserveBin is the command under test, built once by TestMain.
var ptserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ptserve-test")
	if err != nil {
		panic(err)
	}
	ptserveBin = filepath.Join(dir, "ptserve")
	if out, err := exec.Command("go", "build", "-o", ptserveBin, ".").CombinedOutput(); err != nil {
		panic("building ptserve: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// ptserve runs the command on the tiny decoder plus extra flags and
// returns stdout, stderr and the error.
func ptserve(extra ...string) (string, string, error) {
	args := append([]string{"-model", "decoder-tiny", "-small", "-prompt", "8", "-gen", "3"}, extra...)
	cmd := exec.Command(ptserveBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// ptserve validates its flags with the daemon's resolver: a spec ptsimd
// would reject at admission is an error here too, never a panic.
func TestRejectsWhatTheDaemonRejects(t *testing.T) {
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
		_, stderr, err := ptserve(tc.flags...)
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
func TestZeroFlagMeansWireDefault(t *testing.T) {
	stdout, stderr, err := ptserve("-requests", "0", "-rate", "200000", "-max-batch", "2", "-kv-block", "16")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "4 requests") {
		t.Fatalf("want the default 4 requests served, got:\n%s", stdout)
	}
}
