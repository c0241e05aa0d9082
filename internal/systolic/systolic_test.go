package systolic

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// pushGEMM runs a full MxKxN GEMM through the functional array and returns
// the result.
func pushGEMM(t *testing.T, a *Array, in, w *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	m, k := in.Shape[0], in.Shape[1]
	n := w.Shape[1]
	for kk := 0; kk < k; kk++ {
		if err := a.PushWeight(w.Data[kk*n : (kk+1)*n]); err != nil {
			t.Fatal(err)
		}
	}
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		if err := a.PushInput(in.Data[i*k : (i+1)*k]); err != nil {
			t.Fatal(err)
		}
		row, ok := a.PopOutput()
		if !ok {
			t.Fatal("expected output row")
		}
		copy(out.Data[i*n:(i+1)*n], row)
	}
	return out
}

func TestFunctionalGEMMMatchesReference(t *testing.T) {
	// Property body shared with FuzzFunctionalGEMM (fuzz_test.go).
	if err := quick.Check(propFunctionalGEMM, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func pushGEMMQuiet(a *Array, in, w *tensor.Tensor) *tensor.Tensor {
	m, k := in.Shape[0], in.Shape[1]
	n := w.Shape[1]
	for kk := 0; kk < k; kk++ {
		if a.PushWeight(w.Data[kk*n:(kk+1)*n]) != nil {
			return nil
		}
	}
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		if a.PushInput(in.Data[i*k:(i+1)*k]) != nil {
			return nil
		}
		row, ok := a.PopOutput()
		if !ok {
			return nil
		}
		copy(out.Data[i*n:(i+1)*n], row)
	}
	return out
}

func TestWeightReloadBetweenTiles(t *testing.T) {
	r := tensor.NewRNG(1)
	a := New(4, 4)
	in1 := tensor.RandNormal(r, 0, 1, 3, 4)
	w1 := tensor.RandNormal(r, 0, 1, 4, 4)
	in2 := tensor.RandNormal(r, 0, 1, 2, 3)
	w2 := tensor.RandNormal(r, 0, 1, 3, 4)
	got1 := pushGEMM(t, a, in1, w1)
	got2 := pushGEMM(t, a, in2, w2)
	if !tensor.AllClose(got1, tensor.MatMul(in1, w1), 1e-4, 1e-4) {
		t.Fatal("first tile wrong")
	}
	if !tensor.AllClose(got2, tensor.MatMul(in2, w2), 1e-4, 1e-4) {
		t.Fatal("second tile wrong after weight reload")
	}
	if a.ActiveDepth() != 3 {
		t.Fatalf("ActiveDepth = %d, want 3", a.ActiveDepth())
	}
}

func TestFunctionalErrors(t *testing.T) {
	a := New(2, 2)
	if err := a.PushInput([]float32{1, 2}); err == nil {
		t.Fatal("input before weights must fail")
	}
	if err := a.PushWeight([]float32{1, 2, 3}); err == nil {
		t.Fatal("oversized weight row must fail")
	}
	mustPush := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	mustPush(a.PushWeight([]float32{1, 0}))
	mustPush(a.PushWeight([]float32{0, 1}))
	if err := a.PushWeight([]float32{1, 1}); err == nil {
		t.Fatal("staging more than Rows weight rows must fail")
	}
	if err := a.PushInput([]float32{1, 2, 3}); err == nil {
		t.Fatal("oversized input row must fail")
	}
	if _, ok := a.PopOutput(); ok {
		t.Fatal("pop of empty deserializer must report !ok")
	}
}

func TestPendingCount(t *testing.T) {
	a := New(2, 2)
	_ = a.PushWeight([]float32{1, 0})
	_ = a.PushWeight([]float32{0, 1})
	_ = a.PushInput([]float32{1, 2})
	_ = a.PushInput([]float32{3, 4})
	if a.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", a.Pending())
	}
	a.PopOutput()
	if a.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", a.Pending())
	}
}

// --- Timing model tests ---

func TestTimingWeightLoadSerializes(t *testing.T) {
	tm := NewTiming(4, 4, 8)
	// Back-to-back weight pushes issued at cycle 0 complete 1 cycle apart.
	c1 := tm.PushWeight(0)
	c2 := tm.PushWeight(0)
	c3 := tm.PushWeight(0)
	if c1 != 1 || c2 != 2 || c3 != 3 {
		t.Fatalf("weight push completions = %d,%d,%d; want 1,2,3", c1, c2, c3)
	}
}

func TestTimingPipelineLatency(t *testing.T) {
	k, n := 4, 4
	tm := NewTiming(k, n, 8)
	for i := 0; i < k; i++ {
		tm.PushWeight(int64(i))
	}
	// First input pushed at cycle k; accepted at k+1; ready k+1+K+N.
	done := tm.PushInput(int64(k))
	if done != int64(k)+1 {
		t.Fatalf("input push completion = %d, want %d", done, k+1)
	}
	got := tm.Pop(done)
	want := int64(k) + 1 + int64(k) + int64(n) + 1
	if got != want {
		t.Fatalf("pop completion = %d, want %d", got, want)
	}
}

func TestTimingThroughputOneRowPerCycle(t *testing.T) {
	k, n, m := 8, 8, 32
	tm := NewTiming(k, n, 64)
	cyc := int64(0)
	for i := 0; i < k; i++ {
		cyc = tm.PushWeight(cyc)
	}
	var lastPush int64
	for i := 0; i < m; i++ {
		lastPush = tm.PushInput(cyc)
		cyc = lastPush
	}
	var lastPop int64
	for i := 0; i < m; i++ {
		lastPop = tm.Pop(lastPop)
	}
	// Steady state: total ~ K (weights) + M (stream) + K + N (drain).
	want := GEMMTileCycles(m, k, n)
	slack := lastPop - want
	if slack < 0 || slack > 4 {
		t.Fatalf("pipelined GEMM took %d cycles, closed form %d", lastPop, want)
	}
}

func TestTimingDeserializerBackpressure(t *testing.T) {
	k, n := 2, 2
	cap := 2
	tm := NewTiming(k, n, cap)
	tm.PushWeight(0)
	tm.PushWeight(0)
	// Fill the deserializer without popping: pushes beyond capacity stall
	// until prior rows would be ready.
	var completions []int64
	c := int64(2)
	for i := 0; i < 6; i++ {
		c = tm.PushInput(c)
		completions = append(completions, c)
	}
	// The 3rd push (index 2) must stall until row 0 is ready (not 1 cycle
	// after push 2).
	if completions[2] <= completions[1]+1 {
		t.Fatalf("expected backpressure stall, completions=%v", completions)
	}
}

func TestTimingPopOrderEnforced(t *testing.T) {
	tm := NewTiming(2, 2, 8)
	tm.PushWeight(0)
	tm.PushWeight(0)
	tm.PushInput(2)
	tm.PushInput(3)
	p1 := tm.Pop(0) // stalls until first row ready
	p2 := tm.Pop(0) // second pop at least 1 cycle later and >= row-2 ready
	if p2 <= p1 {
		t.Fatalf("pops must serialize: %d then %d", p1, p2)
	}
	if tm.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d, want 0", tm.Outstanding())
	}
}

func TestTimingPopEmptyIsTotal(t *testing.T) {
	tm := NewTiming(2, 2, 8)
	if got := tm.Pop(5); got != 6 {
		t.Fatalf("pop on empty = %d, want 6", got)
	}
}

func TestGEMMTileCyclesMonotonic(t *testing.T) {
	// Property body shared with FuzzGEMMTileCyclesMonotonic (fuzz_test.go).
	if err := quick.Check(propTileCyclesMonotonic, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if GEMMTileCycles(0, 4, 4) != 0 {
		t.Fatal("degenerate tile must cost 0")
	}
}

// refTiming is Timing as it was before its deserializer queue kept a head
// index: the queue holds only un-popped rows and a pop reslices it. It is
// the reference TestTimingQueueMatchesReslicing compares against.
type refTiming struct {
	cols, desCap                int
	serFree, wsetReady, popFree int64
	wsetRows, activeK           int
	readyTimes                  []int64
}

func (t *refTiming) pushWeight(issue int64) int64 {
	start := maxi64(issue, t.serFree)
	t.serFree = start + 1
	t.wsetRows++
	t.wsetReady = start + 1
	return start + 1
}

func (t *refTiming) pushInput(issue int64) int64 {
	start := maxi64(issue, t.serFree)
	if t.wsetRows > 0 {
		start = maxi64(start, t.wsetReady)
		t.activeK = t.wsetRows
		t.wsetRows = 0
	}
	if len(t.readyTimes) >= t.desCap {
		start = maxi64(start, t.readyTimes[len(t.readyTimes)-t.desCap])
	}
	t.serFree = start + 1
	t.readyTimes = append(t.readyTimes, start+1+int64(t.activeK)+int64(t.cols))
	return start + 1
}

func (t *refTiming) pop(issue int64) int64 {
	if len(t.readyTimes) == 0 {
		t.popFree = maxi64(issue, t.popFree) + 1
		return t.popFree
	}
	start := maxi64(maxi64(issue, t.popFree), t.readyTimes[0])
	t.readyTimes = t.readyTimes[1:]
	t.popFree = start + 1
	return start + 1
}

// TestTimingQueueMatchesReslicing drives Timing and the reslicing reference
// with the same random streams of pushes and pops, issue cycles moving
// forward by 0-3 cycles, so the deserializer fills, drains, backs up and
// runs empty; every completion and every Outstanding count must agree.
func TestTimingQueueMatchesReslicing(t *testing.T) {
	r := tensor.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		desCap := 1 + r.Intn(4)
		got := NewTiming(4, 3, desCap)
		want := &refTiming{cols: 3, desCap: desCap}
		var issue int64
		for step := 0; step < 300; step++ {
			issue += int64(r.Intn(4))
			var g, w int64
			switch op := r.Intn(10); {
			case op == 0:
				g, w = got.PushWeight(issue), want.pushWeight(issue)
			case op < 6:
				g, w = got.PushInput(issue), want.pushInput(issue)
			default:
				g, w = got.Pop(issue), want.pop(issue)
			}
			if g != w || got.Outstanding() != len(want.readyTimes) {
				t.Fatalf("trial %d step %d: completion %d, reference %d; outstanding %d, reference %d",
					trial, step, g, w, got.Outstanding(), len(want.readyTimes))
			}
		}
	}
}
