// Package golden pins test output to checked-in files. It registers the
// one -update flag of every test binary that imports it: run a test with
// -update after the package path, e.g.
//
//	go test ./internal/exp -run TestFig9Quick -update
//
// and each Check it reaches rewrites its file instead of comparing.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// Check fails t unless got equals the file at path (relative to the test's
// package directory); with -update it writes got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun %s with -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, rerun %s with -update.",
			path, got, want, t.Name())
	}
}
