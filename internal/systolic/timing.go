package systolic

// Timing is the cycle-accurate ready-time model of the weight-stationary
// array used by the core timing simulator. Rather than stepping every PE
// every cycle, it tracks the times at which the serializer, the array, and
// the deserializer FIFO become free; for the in-order instruction streams
// our compiler emits, this computes exactly the same cycle counts as a
// PE-stepped model (inputs enter skewed, one row per cycle; each output row
// emerges K+N cycles after its input row is accepted; the deserializer
// applies backpressure when full).
type Timing struct {
	Rows, Cols int
	DesCap     int // deserializer FIFO capacity in output rows

	serFree    int64   // first cycle the serializer can accept another push
	wsetRows   int     // rows in the currently-loading weight set
	wsetReady  int64   // cycle when the loading weight set is fully staged
	activeK    int     // depth of the active (committed) weight set
	readyTimes []int64 // ready times of output rows; readyTimes[head:] are not yet popped, FIFO order
	head       int     // index of the oldest un-popped row in readyTimes
	popFree    int64   // first cycle the deserializer port can pop again

	// Activity counters (always on, plain ints — the energy model prices
	// weight rows at Cols elements each and input rows at Cols MAC columns
	// over the active depth).
	WeightRows int64 // rows pushed into the serializer by wvpush
	InputRows  int64 // rows streamed through the array by ivpush
	OutputRows int64 // rows drained by vpop
}

// NewTiming returns a timing model for a rows x cols array with the given
// deserializer capacity (in output rows).
func NewTiming(rows, cols, desCap int) *Timing {
	if desCap <= 0 {
		desCap = 8
	}
	return &Timing{Rows: rows, Cols: cols, DesCap: desCap}
}

// PushWeight accounts a wvpush issued at cycle `issue` and returns the cycle
// at which the instruction completes (serializer accepted the row).
func (t *Timing) PushWeight(issue int64) int64 {
	start := maxi64(issue, t.serFree)
	t.serFree = start + 1
	t.wsetRows++
	t.wsetReady = start + 1
	t.WeightRows++
	return start + 1
}

// PushInput accounts an ivpush issued at cycle `issue`; it returns the cycle
// at which the push completes. If a freshly staged weight set is pending it
// is committed first (the push waits for the last weight row to be staged).
// Backpressure: the push stalls while the deserializer holds DesCap rows
// that have not been popped.
func (t *Timing) PushInput(issue int64) int64 {
	start := maxi64(issue, t.serFree)
	if t.wsetRows > 0 {
		// Commit the staged set; with double-buffered PEs the swap itself is
		// free but the set must be fully staged.
		start = maxi64(start, t.wsetReady)
		t.activeK = t.wsetRows
		t.wsetRows = 0
	}
	// Deserializer backpressure: the array stalls if accepting this row
	// would overflow the FIFO given the rows still queued.
	if len(t.readyTimes)-t.head >= t.DesCap {
		// The oldest un-popped row must have been popped for space; the
		// caller pops in order, so model the stall as waiting until the
		// FIFO has room. Pop bookkeeping happens in Pop; here we
		// conservatively wait until the row that will free our slot is
		// popped. Since Pop times are only known later, we expose the
		// stall through Pop's accounting: the push waits for popFree of
		// the row DesCap positions earlier.
		start = maxi64(start, t.readyTimes[len(t.readyTimes)-t.DesCap])
	}
	t.serFree = start + 1
	// The output row appears in the deserializer after the array pipeline:
	// K cycles of vertical propagation plus Cols cycles of skewed drain.
	ready := start + 1 + int64(t.activeK) + int64(t.Cols)
	if len(t.readyTimes) == cap(t.readyTimes) && t.head > 0 {
		// Reuse the popped prefix rather than growing: a steady stream of
		// pushes and pops then allocates nothing.
		t.readyTimes = t.readyTimes[:copy(t.readyTimes, t.readyTimes[t.head:])]
		t.head = 0
	}
	t.readyTimes = append(t.readyTimes, ready)
	t.InputRows++
	return start + 1
}

// Pop accounts a vpop issued at cycle `issue` and returns the cycle at which
// the popped output row is available in the vector register file. It stalls
// until the oldest output row is ready (implicit synchronization, §3.5).
func (t *Timing) Pop(issue int64) int64 {
	if t.head == len(t.readyTimes) {
		// vpop with nothing in flight: architecturally this would deadlock;
		// the static scheduler never emits it. Treat as a 1-cycle nop so the
		// timing model stays total.
		t.popFree = maxi64(issue, t.popFree) + 1
		return t.popFree
	}
	start := maxi64(issue, t.popFree)
	start = maxi64(start, t.readyTimes[t.head])
	t.head++
	t.popFree = start + 1
	t.OutputRows++
	return start + 1
}

// Outstanding returns the number of output rows in flight or queued.
func (t *Timing) Outstanding() int { return len(t.readyTimes) - t.head }

// GEMMTileCycles returns the closed-form cycle count for one weight-
// stationary tile operation: load a KxN weight set, stream M input rows, and
// pop M output rows, with loads/pops perfectly pipelined. It is used by the
// analytical baseline and as a cross-check for the detailed model.
func GEMMTileCycles(m, k, n int) int64 {
	if m <= 0 || k <= 0 || n <= 0 {
		return 0
	}
	// K cycles weight load + M cycles streaming + (K+N) pipeline drain.
	return int64(k) + int64(m) + int64(k) + int64(n)
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
