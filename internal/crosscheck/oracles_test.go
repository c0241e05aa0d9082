package crosscheck

import "testing"

// The serve-determinism oracle passes clean: the same seeded serving job on
// a fresh service, again, probed, and on a warmed service must not move a
// single field of the canonical result.
func TestCheckServe(t *testing.T) {
	if err := CheckServe(2); err != nil {
		t.Fatal(err)
	}
}

// The topology-parallel oracle passes clean on a prefix of the standing
// gate's stream (the full 200-case sweep runs in `make crosscheck`).
func TestCheckTopology(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	if err := CheckTopology(2, n); err != nil {
		t.Fatal(err)
	}
}
