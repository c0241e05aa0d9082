package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// crossbarTrace drives a CN crossbar the way togsim's standard fabric
// does — wide core ports (width = channels), one-flit channel ports, an
// idle-skipping event loop, and refused submits retried in per-source
// order — under seeded mixed-size traffic with idle gaps and queues small
// enough to refuse. It renders every message's timing, the refusal count,
// both switch counters and every NextEvent answer.
func crossbarTrace(t *testing.T) string {
	const (
		cores, channels = 2, 8
		latency         = 3
		queueCap        = 12
		messages        = 600
	)
	x := NewCrossbar(32, latency, queueCap)
	for c := 0; c < cores; c++ {
		x.SetPortWidth(c, channels)
	}
	r := tensor.NewRNG(36)
	sizes := []int{0, 1, 32, 32, 64, 96, 100, 256}
	type arrival struct {
		at int64
		m  *Message
	}
	var gen []arrival
	var at int64
	for i := 0; i < messages; i++ {
		if r.Intn(8) == 0 {
			at += int64(r.Intn(40))
		} else {
			at += int64(r.Intn(2))
		}
		m := &Message{Src: r.Intn(cores), Dst: cores + r.Intn(channels)}
		if r.Intn(2) == 0 {
			m.Src, m.Dst = m.Dst, m.Src
		}
		m.Bytes = sizes[r.Intn(len(sizes))]
		gen = append(gen, arrival{at, m})
	}

	var events []int64
	var staged []*Message
	next, refused, delivered := 0, 0, 0
	for delivered < messages {
		if x.Cycle() > 1_000_000 {
			t.Fatalf("trace did not drain: %d of %d delivered", delivered, messages)
		}
		for next < len(gen) && gen[next].at <= x.Cycle() {
			staged = append(staged, gen[next].m)
			next++
		}
		// Retry staged messages in order; a refused one blocks its source.
		var blocked [cores + channels]bool
		kept := staged[:0]
		for _, m := range staged {
			if blocked[m.Src] || !x.Submit(m) {
				if !blocked[m.Src] {
					refused++
				}
				blocked[m.Src] = true
				kept = append(kept, m)
			}
		}
		staged = kept
		ev := x.NextEvent()
		events = append(events, ev)
		target := ev
		if len(staged) > 0 {
			target = x.Cycle() + 1
		}
		if next < len(gen) && gen[next].at < target {
			target = max(gen[next].at, x.Cycle()+1)
		}
		if target == sim.Never {
			t.Fatalf("idle with %d of %d delivered", delivered, messages)
		}
		if target-1 > x.Cycle() {
			x.SkipTo(target - 1)
		}
		x.Tick()
		delivered += len(x.Completed())
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# CN crossbar trace: %d cores (width %d), %d channels, latency %d, queue cap %d\n",
		cores, channels, channels, latency, queueCap)
	b.WriteString("# src dst bytes arrive finish\n")
	for _, g := range gen {
		m := g.m
		fmt.Fprintf(&b, "%d %d %d %d %d\n", m.Src, m.Dst, m.Bytes, m.Arrive, m.Finish)
	}
	fmt.Fprintf(&b, "refused %d\nflits_switched %d\nalloc_conflicts %d\n", refused, x.FlitsSwitched, x.AllocConflicts)
	fmt.Fprintf(&b, "next_event %d answers\n", len(events))
	for i, ev := range events {
		sep := " "
		if i%16 == 15 || i == len(events)-1 {
			sep = "\n"
		}
		if ev == sim.Never {
			fmt.Fprintf(&b, "never%s", sep)
		} else {
			fmt.Fprintf(&b, "%d%s", ev, sep)
		}
	}
	return b.String()
}

// TestCrossbarTraceGolden pins the crossbar's cycle-level behaviour: any
// change to allocation order, backpressure, latency or idle skipping moves
// a byte of testdata/crossbar_trace.txt. Regenerate after an intentional
// timing change with `go test ./internal/noc -run TestCrossbarTraceGolden -update`.
func TestCrossbarTraceGolden(t *testing.T) {
	golden.Check(t, "testdata/crossbar_trace.txt", []byte(crossbarTrace(t)))
}
