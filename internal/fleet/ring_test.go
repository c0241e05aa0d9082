package fleet

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// The ring is deterministic in the membership set: insertion order must not
// matter, and every node computing ownership from the same list agrees.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"m0", "m1", "m2"})
	b := NewRing([]string{"m2", "m0", "m1", "m0"}) // shuffled + duplicate
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("ring order sensitivity: %q owned by %s vs %s", key, a.Owner(key), b.Owner(key))
		}
		if !reflect.DeepEqual(a.Sequence(key), b.Sequence(key)) {
			t.Fatalf("sequence differs for %q: %v vs %v", key, a.Sequence(key), b.Sequence(key))
		}
	}
}

// Virtual nodes keep the load roughly uniform: with 3 members and many
// keys, no member owns more than ~half or less than ~a fifth.
func TestRingDistribution(t *testing.T) {
	r := NewRing([]string{"m0", "m1", "m2"})
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	if len(counts) != 3 {
		t.Fatalf("only %d members own keys: %v", len(counts), counts)
	}
	for id, c := range counts {
		if c < n/5 || c > n/2 {
			t.Fatalf("member %s owns %d of %d keys (outside [%d,%d]): %v",
				id, c, n, n/5, n/2, counts)
		}
	}
}

// Sequence lists every member exactly once, owner first.
func TestRingSequence(t *testing.T) {
	r := NewRing([]string{"m0", "m1", "m2", "m3"})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key)
		if len(seq) != 4 {
			t.Fatalf("sequence for %q has %d members, want 4: %v", key, len(seq), seq)
		}
		if seq[0] != r.Owner(key) {
			t.Fatalf("sequence for %q starts with %s, owner is %s", key, seq[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, id := range seq {
			if seen[id] {
				t.Fatalf("duplicate %s in sequence %v", id, seq)
			}
			seen[id] = true
		}
	}
}

// Removing a member only moves the keys it owned: everyone else's keys
// stay put — the property that makes member death cheap for cache warmth.
func TestRingStabilityUnderRemoval(t *testing.T) {
	full := NewRing([]string{"m0", "m1", "m2"})
	reduced := NewRing([]string{"m0", "m2"})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != "m1" && after != before {
			t.Fatalf("key %q moved %s -> %s though its owner survived", key, before, after)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if got := r.Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	if got := r.Sequence("k"); got != nil {
		t.Fatalf("empty ring sequence = %v, want nil", got)
	}
}

// Peers is a member's peer-cache resolver: the key's preference order
// with self skipped, cut to at most n entries.
func TestRingPeers(t *testing.T) {
	r := NewRing([]string{"m0", "m1", "m2", "m3"})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key)
		for _, self := range append(seq, "stranger") {
			var want []string
			for _, id := range seq {
				if id != self {
					want = append(want, id)
				}
			}
			for n := 0; n <= 5; n++ {
				got := r.Peers(key, self, n)
				w := want[:min(n, len(want))]
				if !slices.Equal(got, w) {
					t.Fatalf("Peers(%q, %s, %d) = %v, want %v (sequence %v)", key, self, n, got, w, seq)
				}
			}
		}
	}
	if got := r.Peers("k", r.Owner("k"), 2); len(got) != 2 || got[0] == r.Owner("k") {
		t.Fatalf("owner's peers %v must skip the owner", got)
	}
	if got := NewRing(nil).Peers("k", "m0", 2); len(got) != 0 {
		t.Fatalf("empty ring peers = %v, want none", got)
	}
}
