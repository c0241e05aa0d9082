package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSimpleSingleMessageLatency(t *testing.T) {
	s := NewSimple(32, 4)
	m := &Message{Src: 0, Dst: 1, Bytes: 64} // 2 flits
	s.Submit(m)
	done := Drain(s)
	if len(done) != 1 {
		t.Fatalf("delivered %d messages", len(done))
	}
	if m.Finish != 2+4 {
		t.Fatalf("Finish = %d, want 6 (2 flit cycles + 4 latency)", m.Finish)
	}
}

func TestSimpleSourceSerialization(t *testing.T) {
	s := NewSimple(32, 4)
	a := &Message{Src: 0, Dst: 1, Bytes: 320} // 10 flits
	b := &Message{Src: 0, Dst: 2, Bytes: 32}  // 1 flit, behind a
	s.Submit(a)
	s.Submit(b)
	Drain(s)
	if b.Finish <= a.Finish-4 {
		t.Fatalf("second message from same source must serialize: a=%d b=%d", a.Finish, b.Finish)
	}
	// Different sources are independent.
	s2 := NewSimple(32, 4)
	c := &Message{Src: 0, Dst: 1, Bytes: 320}
	d := &Message{Src: 3, Dst: 2, Bytes: 32}
	s2.Submit(c)
	s2.Submit(d)
	Drain(s2)
	if d.Finish >= c.Finish {
		t.Fatalf("independent sources must not serialize: c=%d d=%d", c.Finish, d.Finish)
	}
}

func TestSimpleBandwidthBound(t *testing.T) {
	s := NewSimple(32, 0)
	// 100 messages of 32B from one source: >= 100 cycles.
	var last int64
	for i := 0; i < 100; i++ {
		m := &Message{Src: 0, Dst: 1, Bytes: 32}
		s.Submit(m)
	}
	for _, m := range Drain(s) {
		if m.Finish > last {
			last = m.Finish
		}
	}
	if last < 100 {
		t.Fatalf("one flit per cycle bound violated: %d", last)
	}
}

func TestCrossbarSingleMessage(t *testing.T) {
	x := NewCrossbar(32, 3, 64)
	m := &Message{Src: 0, Dst: 1, Bytes: 96} // 3 flits
	if !x.Submit(m) {
		t.Fatal("submit rejected")
	}
	done := Drain(x)
	if len(done) != 1 {
		t.Fatalf("delivered %d", len(done))
	}
	// 3 flits leave at cycles 1,2,3; tail at 3 + latency 3 = 6.
	if m.Finish != 6 {
		t.Fatalf("Finish = %d, want 6", m.Finish)
	}
	if x.FlitsSwitched != 3 {
		t.Fatalf("FlitsSwitched = %d", x.FlitsSwitched)
	}
}

func TestCrossbarOutputContention(t *testing.T) {
	// Two inputs to the same output: each gets half throughput.
	x := NewCrossbar(32, 0, 1024)
	a := &Message{Src: 0, Dst: 9, Bytes: 32 * 10}
	b := &Message{Src: 1, Dst: 9, Bytes: 32 * 10}
	x.Submit(a)
	x.Submit(b)
	Drain(x)
	lastFinish := a.Finish
	if b.Finish > lastFinish {
		lastFinish = b.Finish
	}
	// 20 flits through one output port: >= 20 cycles.
	if lastFinish < 20 {
		t.Fatalf("output port overdriven: done at %d", lastFinish)
	}
	if x.AllocConflicts == 0 {
		t.Fatal("expected allocation conflicts")
	}

	// Same flits to different outputs: parallel, ~10 cycles.
	x2 := NewCrossbar(32, 0, 1024)
	c := &Message{Src: 0, Dst: 8, Bytes: 32 * 10}
	d := &Message{Src: 1, Dst: 9, Bytes: 32 * 10}
	x2.Submit(c)
	x2.Submit(d)
	Drain(x2)
	if c.Finish > 12 || d.Finish > 12 {
		t.Fatalf("parallel outputs should not contend: %d, %d", c.Finish, d.Finish)
	}
}

func TestCrossbarRoundRobinFairness(t *testing.T) {
	x := NewCrossbar(32, 0, 4096)
	// Three sources each send 30 one-flit messages to output 7.
	msgs := map[int][]*Message{}
	for i := 0; i < 30; i++ {
		for src := 0; src < 3; src++ {
			m := &Message{Src: src, Dst: 7, Bytes: 32}
			x.Submit(m)
			msgs[src] = append(msgs[src], m)
		}
	}
	Drain(x)
	// Last delivery per source should be within a few cycles of each other.
	var lasts []int64
	for src := 0; src < 3; src++ {
		var last int64
		for _, m := range msgs[src] {
			if m.Finish > last {
				last = m.Finish
			}
		}
		lasts = append(lasts, last)
	}
	for _, l := range lasts {
		if l < lasts[0]-3 || l > lasts[0]+3 {
			t.Fatalf("round robin unfair: %v", lasts)
		}
	}
}

func TestCrossbarQueueBackpressure(t *testing.T) {
	x := NewCrossbar(32, 0, 4)
	a := &Message{Src: 0, Dst: 1, Bytes: 32 * 4}
	if !x.Submit(a) {
		t.Fatal("first message should fit")
	}
	b := &Message{Src: 0, Dst: 1, Bytes: 32}
	if x.Submit(b) {
		t.Fatal("queue-full submit must be rejected")
	}
	x.Tick()
	if !x.Submit(b) {
		t.Fatal("after a flit drains, submit should succeed")
	}
	Drain(x)
}

func TestCrossbarPerPairOrdering(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		x := NewCrossbar(32, 2, 4096)
		var sent []*Message
		for i := 0; i < 50; i++ {
			m := &Message{Src: r.Intn(4), Dst: 4 + r.Intn(4), Bytes: 32 * (1 + r.Intn(3))}
			for !x.Submit(m) {
				x.Tick()
				x.Completed()
			}
			sent = append(sent, m)
		}
		Drain(x)
		// For each (src,dst) pair, finishes must be in submission order.
		lastByPair := map[[2]int]int64{}
		for _, m := range sent {
			key := [2]int{m.Src, m.Dst}
			if m.Finish < lastByPair[key] {
				return false
			}
			lastByPair[key] = m.Finish
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAllMessagesDelivered is a conservation check on both models with
// wide ports, as togsim.NewStandard sets them (so the crossbar's
// multi-pass allocator runs): every submitted message is delivered exactly
// once — counting completions drained while a submit retries — at its
// Finish cycle, no earlier than Arrive + Latency, and Flits() equals the
// flits the messages split into.
func TestAllMessagesDelivered(t *testing.T) {
	const flitBytes, latency = 32, 3
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		for _, n := range []Network{NewSimple(flitBytes, latency), NewCrossbar(flitBytes, latency, 16)} {
			for port := 0; port < 2; port++ {
				n.SetPortWidth(port, 4)
			}
			delivered := map[*Message]int{}
			collect := func(done []*Message) bool {
				for _, m := range done {
					delivered[m]++
					if n.Cycle() != m.Finish {
						t.Logf("%T: message finishing at %d delivered at %d", n, m.Finish, n.Cycle())
						return false
					}
				}
				return true
			}
			var sent []*Message
			var flits int64
			for i := 0; i < 100; i++ {
				m := &Message{Src: r.Intn(8), Dst: r.Intn(8), Bytes: r.Intn(200)}
				for !n.Submit(m) {
					n.Tick()
					if !collect(n.Completed()) {
						return false
					}
				}
				sent = append(sent, m)
				flits += int64(max(1, (m.Bytes+flitBytes-1)/flitBytes))
				if r.Intn(3) == 0 {
					n.Tick()
					if !collect(n.Completed()) {
						return false
					}
				}
			}
			for n.Pending() > 0 && n.Cycle() < 1_000_000 {
				n.Tick()
				if !collect(n.Completed()) {
					return false
				}
			}
			if len(delivered) != len(sent) || n.Pending() != 0 {
				t.Logf("%T: %d of %d messages delivered, %d pending", n, len(delivered), len(sent), n.Pending())
				return false
			}
			for _, m := range sent {
				if delivered[m] != 1 || m.Finish < m.Arrive+latency {
					t.Logf("%T: message %+v delivered %d times", n, *m, delivered[m])
					return false
				}
			}
			if n.Flits() != flits {
				t.Logf("%T: Flits() = %d, want %d", n, n.Flits(), flits)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossbarSlowerOrEqualThanSimpleUnderContention(t *testing.T) {
	// With many sources hammering one destination, the detailed crossbar
	// must not be faster than the idealized SN model's destination port.
	load := func(n Network) int64 {
		var msgs []*Message
		for i := 0; i < 64; i++ {
			m := &Message{Src: i % 4, Dst: 8, Bytes: 64}
			for !n.Submit(m) {
				n.Tick()
				n.Completed()
			}
			msgs = append(msgs, m)
		}
		Drain(n)
		var last int64
		for _, m := range msgs {
			if m.Finish > last {
				last = m.Finish
			}
		}
		return last
	}
	sn := load(NewSimple(32, 2))
	cn := load(NewCrossbar(32, 2, 256))
	if cn+4 < sn {
		t.Fatalf("crossbar (%d) should not beat idealized SN (%d) under contention", cn, sn)
	}
}
