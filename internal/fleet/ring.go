// Package fleet shards a simulation service across N ptsimd instances.
//
// The coordinator consistent-hashes every job's compile content address
// (service.ContentKey) onto a ring of members, so identical jobs always
// land on the same member's warm caches, and members backfill compiled
// artifacts from each other through the cache.Peer remote tier. Determinism
// is preserved end to end: a fleet returns bit-identical JobResults to a
// single ptsimd for the same specs, which the crosscheck fleet oracle and
// the chaos test both pin.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ringReplicas is the number of virtual nodes per member. 64 keeps the
// worst-case member load within a few percent of uniform for small fleets
// while the ring stays tiny (N*64 points).
const ringReplicas = 64

// Ring is an immutable consistent-hash ring over member IDs. Lookup is a
// binary search over virtual points; the ring is deterministic in the set
// of IDs (insertion order does not matter), so every member of a fleet
// computes identical ownership from the same membership list.
type Ring struct {
	points []ringPoint
	ids    []string
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds a ring over the given member IDs (duplicates collapse).
func NewRing(ids []string) *Ring {
	seen := map[string]bool{}
	r := &Ring{}
	for _, id := range ids {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		r.ids = append(r.ids, id)
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", id, i)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id // total order even on hash collision
	})
	sort.Strings(r.ids)
	return r
}

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Members returns the distinct member IDs on the ring, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}

// Owner returns the member owning key: the first virtual point at or after
// the key's hash, wrapping. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}

// Sequence returns every member in the key's preference order: the owner
// first, then each further distinct member in ring order. The coordinator
// walks this list when the owner is down, and the peer cache tier asks the
// first entries (minus the caller) for artifacts.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := map[string]bool{}
	out := make([]string, 0, len(r.ids))
	for i := 0; i < len(r.points) && len(out) < len(r.ids); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}

// Peers returns up to n members in key's preference order, skipping self:
// the nodes a member's peer cache tier asks for key. When self owns key
// the list starts with the next member in ring order.
func (r *Ring) Peers(key, self string, n int) []string {
	out := make([]string, 0, n)
	for _, id := range r.Sequence(key) {
		if len(out) == n {
			break
		}
		if id != self {
			out = append(out, id)
		}
	}
	return out
}
