//go:build !race

package sim

import "testing"

// TestMonotonicQueueSteadyStateAllocs pins the queue's buffers being
// reused: once they have grown, pushing and delivering events must not
// allocate, at one lane or at thirty-two (the engine-level counterpart is
// togsim's TestRunAllocsAmortized).
func TestMonotonicQueueSteadyStateAllocs(t *testing.T) {
	for _, lanes := range []int{1, 32} {
		step := saturatedQueue(lanes)
		if a := testing.AllocsPerRun(2000, func() { step() }); a != 0 {
			t.Errorf("lanes=%d: %.2f allocs per simulated cycle in steady state, want 0", lanes, a)
		}
	}
}
