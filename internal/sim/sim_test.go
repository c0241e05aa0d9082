package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue[int]
	if q.NextCycle() != Never {
		t.Fatalf("empty queue NextCycle = %d, want Never", q.NextCycle())
	}
	q.Push(30, 1)
	q.Push(10, 2)
	q.Push(20, 3)
	if q.NextCycle() != 10 {
		t.Fatalf("NextCycle = %d, want 10", q.NextCycle())
	}
	var got []int
	for q.Len() > 0 {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("Pop failed on non-empty queue")
		}
		got = append(got, v)
	}
	want := []int{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue must report !ok")
	}
}

// Same-cycle events must pop in insertion order: the component refactors
// depend on this to keep completion order identical to per-cycle scans.
func TestEventQueueFIFOWithinCycle(t *testing.T) {
	var q EventQueue[int]
	for i := 0; i < 100; i++ {
		q.Push(5, i)
	}
	q.Push(3, -1)
	for i := -1; i < 100; i++ {
		v, _ := q.Pop()
		if v != i {
			t.Fatalf("pop = %d, want %d", v, i)
		}
	}
}

func TestEventQueuePopDue(t *testing.T) {
	var q EventQueue[string]
	q.Push(1, "a")
	q.Push(3, "c")
	q.Push(2, "b")
	q.Push(7, "d")
	out := q.PopDue(3, nil)
	if len(out) != 3 || out[0] != "a" || out[1] != "b" || out[2] != "c" {
		t.Fatalf("PopDue(3) = %v", out)
	}
	if q.NextCycle() != 7 {
		t.Fatalf("NextCycle after PopDue = %d, want 7", q.NextCycle())
	}
	if out = q.PopDue(6, out[:0]); len(out) != 0 {
		t.Fatalf("PopDue(6) = %v, want empty", out)
	}
}

func TestEventQueueRandomizedAgainstSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q EventQueue[int]
	type ev struct {
		cycle int64
		id    int
	}
	var ref []ev
	for i := 0; i < 2000; i++ {
		c := int64(r.Intn(50))
		q.Push(c, i)
		ref = append(ref, ev{c, i})
	}
	sort.SliceStable(ref, func(a, b int) bool { return ref[a].cycle < ref[b].cycle })
	for i, want := range ref {
		v, ok := q.Pop()
		if !ok || v != want.id {
			t.Fatalf("pop %d = %d (ok=%v), want %d", i, v, ok, want.id)
		}
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock must start at 0")
	}
	if c.Tick() != 1 || c.Now() != 1 {
		t.Fatal("Tick must advance by one")
	}
	c.SkipTo(100)
	if c.Now() != 100 {
		t.Fatalf("SkipTo: now = %d", c.Now())
	}
	c.SkipTo(100) // same cycle is legal
	defer func() {
		if recover() == nil {
			t.Fatal("backwards SkipTo must panic")
		}
	}()
	c.SkipTo(99)
}

func TestEarliest(t *testing.T) {
	if Earliest() != Never {
		t.Fatal("Earliest() must be Never")
	}
	if Earliest(5, Never, 3, 9) != 3 {
		t.Fatal("Earliest picked wrong minimum")
	}
}

// countingComponent records Tick/SkipTo calls for Meter tests.
type countingComponent struct {
	ticks     int
	skippedTo int64
}

func (c *countingComponent) Tick()              { c.ticks++ }
func (c *countingComponent) NextEvent() int64   { return Never }
func (c *countingComponent) SkipTo(cycle int64) { c.skippedTo = cycle }

func TestMeter(t *testing.T) {
	inner := &countingComponent{}
	m := Meter{C: inner}
	m.Tick()
	m.Tick()
	m.Tick()
	if m.Ticked != 3 || inner.ticks != 3 {
		t.Fatalf("Ticked = %d (inner %d), want 3", m.Ticked, inner.ticks)
	}
	m.SkipTo(10) // now = 3, so 7 cycles skipped
	if m.Skipped != 7 || inner.skippedTo != 10 {
		t.Fatalf("Skipped = %d (inner at %d), want 7 at 10", m.Skipped, inner.skippedTo)
	}
	m.SkipTo(10) // same-cycle skip adds nothing
	m.SkipTo(9)  // backwards skip is forwarded but counts nothing
	if m.Skipped != 7 {
		t.Fatalf("redundant skips changed the count: %d", m.Skipped)
	}
	m.Tick()
	if m.Ticked != 4 || m.Skipped != 7 {
		t.Fatalf("after mixed use: Ticked=%d Skipped=%d, want 4/7", m.Ticked, m.Skipped)
	}
	if m.NextEvent() != Never {
		t.Fatal("NextEvent must delegate to the wrapped component")
	}
}
