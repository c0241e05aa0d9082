package sim

import (
	"fmt"
	"testing"
)

// saturatedQueue returns a queue in the steady state the DRAM and NoC
// models produce under saturation, and the function that advances it one
// cycle: every lane pushes one event (due a pipeline latency ahead) and
// PopDue delivers one event per lane. step reports how many it delivered.
func saturatedQueue(lanes int) (step func() int) {
	const depth = 8 // cycles between issue and completion
	q := NewMonotonicQueue[*int](lanes)
	v := new(int)
	var out []*int
	cycle := int64(0)
	step = func() int {
		cycle++
		for l := 0; l < lanes; l++ {
			q.Push(l, cycle+depth, v)
		}
		out = q.PopDue(cycle, out[:0])
		return len(out)
	}
	// Warm up past the first compaction of the queue's internal FIFO, so
	// every buffer has reached its steady-state capacity.
	for i := 0; i < 4096; i++ {
		step()
	}
	return step
}

// BenchmarkMonotonicQueue measures one event through the queue (one Push
// plus its share of a PopDue) in that steady state. The lanes=1 and
// lanes=32 rows side by side are the price of merging across lanes.
// TestMonotonicQueueSteadyStateAllocs pins the 0 allocs/op it reports.
func BenchmarkMonotonicQueue(b *testing.B) {
	for _, lanes := range []int{1, 32} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			step := saturatedQueue(lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += lanes {
				if n := step(); n != lanes {
					b.Fatalf("delivered %d events in one cycle, want %d", n, lanes)
				}
			}
		})
	}
}
