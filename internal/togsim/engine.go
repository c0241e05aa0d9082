package togsim

import (
	"fmt"
	"strings"

	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tog"
)

// DefaultMaxCycles is the deadlock guard: a run exceeding this many
// simulated cycles aborts with a diagnostic error listing the stuck jobs.
// Override per engine via Engine.MaxCycles.
const DefaultMaxCycles = 20_000_000_000

// nodesPerCycle bounds the zero-cost nodes (loop bounds, waits already
// satisfied) one context walks in a single cycle.
const nodesPerCycle = 256

// Job is one unit of scheduled work: a sequence of TOGs (e.g. a model's
// layers) executed in order on a specific core. Bases gives each TOG its
// tensor base addresses in DRAM; Src tags the job's memory traffic for
// fairness accounting (multi-tenancy, §5.2).
type Job struct {
	Name  string
	TOGs  []*tog.TOG
	Bases []map[string]uint64
	Core  int
	Src   int
	// Arrival is the cycle the job becomes eligible to start (load
	// generator arrival time, §3.10); 0 = immediately.
	Arrival int64
}

// Activity counts the physical work one job performed, in plain int64
// event counts (the dram.Stats pattern): always on, no floats, no probe
// dependency, so the values are bit-identical across event-driven and
// strict execution. Energy is derived from these counters post-hoc
// by the report layer (activity x npu.EnergyTable) — never here.
type Activity struct {
	SAMacCycles    int64 // cycles a systolic array streamed this job's tiles (MACs = cycles x rows x cols)
	SATileLoads    int64 // weight tiles loaded into a systolic array (one per SA compute node)
	VectorCycles   int64 // vector-ALU busy cycles (lane-ops = cycles x VLEN)
	SparseCycles   int64 // sparse-unit busy cycles (charged at lane-op rate)
	SpadReadBytes  int64 // scratchpad bytes read out by store DMAs
	SpadWriteBytes int64 // scratchpad bytes written by load DMAs
}

// Add accumulates b into a.
func (a *Activity) Add(b Activity) {
	a.SAMacCycles += b.SAMacCycles
	a.SATileLoads += b.SATileLoads
	a.VectorCycles += b.VectorCycles
	a.SparseCycles += b.SparseCycles
	a.SpadReadBytes += b.SpadReadBytes
	a.SpadWriteBytes += b.SpadWriteBytes
}

// JobResult reports one job's timing. The cycle-class fields are
// accounted from state-transition timestamps, so they are identical under
// event-driven and strict per-cycle execution (the equivalence tests
// compare them bit-for-bit).
type JobResult struct {
	Name        string
	Core        int // engine core the job ran on
	Start, End  int64
	ComputeBusy int64 // cycles any compute node of this job was executing
	UnitWait    int64 // cycles compute nodes queued for a busy unit
	DMAWait     int64 // cycles blocked on DMA: wait nodes, drains, backpressure
	DMABytes    int64
	Activity    Activity
	// Collective accounting: cycles spent inside collective regions
	// (all_reduce/all_gather/reduce_scatter markers to their collEnd) and
	// how many regions ran. Zero for jobs without collectives.
	CollectiveCycles int64
	Collectives      int64
}

// CoreStats reports one core's compute-unit busy cycles.
type CoreStats struct {
	SABusy     int64 // summed across the core's systolic arrays
	VectorBusy int64
	SparseBusy int64
}

// SAUtil returns SA busy fraction over the run (per SA).
func (c CoreStats) SAUtil(totalCycles int64, numSAs int) float64 {
	if totalCycles == 0 || numSAs == 0 {
		return 0
	}
	return float64(c.SABusy) / float64(totalCycles*int64(numSAs))
}

// Result is the outcome of an engine run.
type Result struct {
	Cycles int64
	Jobs   []JobResult
	Cores  []CoreStats
}

// Engine executes jobs on a multi-core NPU against a memory fabric.
//
// By default it runs event-driven: each iteration it computes the earliest
// cycle at which anything can happen — a context wake-up, a job arrival,
// or a fabric event — and jumps the clock straight there, skipping the
// idle cycles a polling loop would burn. At that cycle it steps only the
// cores that are due and ticks the fabric only if it has work then. The
// skip logic is conservative by construction (components report cycle+1
// whenever they cannot bound their next event), so results are
// bit-identical to per-cycle polling.
type Engine struct {
	Cfg    npu.Config
	Fabric Fabric

	// StrictTick disables cycle-skipping and advances the clock one cycle
	// at a time (the original polling loop). Results are identical either
	// way; the flag exists for equivalence testing and debugging.
	StrictTick bool

	// MaxCycles guards against deadlock (0 = DefaultMaxCycles).
	MaxCycles int64

	// Probe receives trace spans (per compute node, per DMA, per job) and
	// counters when non-nil. A nil probe adds no allocations to the hot
	// path, and an attached probe never changes the Result — both enforced
	// by the equivalence tests and the TLS engine benchmarks.
	Probe obs.Probe
}

// NewEngine returns an engine over the given fabric.
func NewEngine(cfg npu.Config, fabric Fabric) *Engine {
	return &Engine{Cfg: cfg, Fabric: fabric}
}

// DeadlockError is the typed run-cannot-finish failure: the simulation
// either ran out of future events or exceeded MaxCycles. Detail carries
// the full per-job diagnostic (stuck jobs, their oldest pending DMAs,
// fabric occupancy) so callers can surface it verbatim — the daemon puts
// it in the job's error body rather than a bare status string.
type DeadlockError struct {
	Cycle     int64
	Remaining int
	Detail    string
}

func (e *DeadlockError) Error() string { return e.Detail }

// core-local shared compute units.
type coreState struct {
	saFree     []int64 // one entry per systolic array
	vecFree    int64
	sparseFree int64
	contexts   []*context
	queue      []*Job // jobs waiting for a free context slot
	maxCtx     int
	stats      CoreStats

	// due caches coreNextEvent for the event-driven loop. A core's state
	// changes only when it steps or receives a delivery, and both set
	// stale, so a cached value stays exact until then. StrictTick leaves
	// due at 0: every core steps every cycle.
	due   int64
	stale bool

	// reqPool recycles this core's completed memory requests: contexts
	// allocate from it while stepping and the engine returns requests to
	// it at delivery time.
	reqPool []*MemReq

	// Probe-side power track: cumulative dynamic compute energy (pJ) of
	// this core, emitted as change-triggered counter samples. rates is nil
	// unless a probe is attached AND the config has an energy table, so
	// the float never exists — let alone influences anything — on the
	// untraced path (probe invariance of Results is oracle-enforced).
	rates    *energyRates
	energyPJ float64
}

// energyRates pre-multiplies the per-event table entries into per-busy-cycle
// picojoule rates for the trace power track.
type energyRates struct {
	saPJ     float64 // per SA busy cycle (rows x cols MACs)
	saTilePJ float64 // per weight tile load (rows x cols elements)
	vecPJ    float64 // per vector busy cycle (VLEN lane-ops)
	sparsePJ float64 // per sparse busy cycle (charged at lane-op rate)
}

func newEnergyRates(cfg npu.Config) *energyRates {
	if cfg.Energy.IsZero() {
		return nil
	}
	pes := float64(cfg.Core.SARows) * float64(cfg.Core.SACols)
	vlen := float64(cfg.Core.VLEN())
	return &energyRates{
		saPJ:     pes * cfg.Energy.PJPerMAC,
		saTilePJ: pes * cfg.Energy.PJPerWeightLoad,
		vecPJ:    vlen * cfg.Energy.PJPerLaneOp,
		sparsePJ: vlen * cfg.Energy.PJPerLaneOp,
	}
}

// prepare validates the job set and builds fresh per-core state.
func (e *Engine) prepare(jobs []*Job) ([]*coreState, map[*Job]*JobResult, error) {
	var rates *energyRates
	if e.Probe != nil {
		rates = newEnergyRates(e.Cfg)
	}
	cores := make([]*coreState, e.Cfg.Cores)
	for i := range cores {
		cores[i] = &coreState{
			saFree: make([]int64, e.Cfg.Core.NumSAs),
			maxCtx: 2, // double-buffered contexts (§3.3.1)
			rates:  rates,
			stale:  true,
		}
	}
	results := map[*Job]*JobResult{}
	for _, j := range jobs {
		if j.Core < 0 || j.Core >= len(cores) {
			return nil, nil, fmt.Errorf("togsim: job %q assigned to invalid core %d", j.Name, j.Core)
		}
		if len(j.Bases) != len(j.TOGs) {
			return nil, nil, fmt.Errorf("togsim: job %q has %d TOGs but %d base maps", j.Name, len(j.TOGs), len(j.Bases))
		}
		for _, g := range j.TOGs {
			if err := g.Validate(); err != nil {
				return nil, nil, fmt.Errorf("togsim: job %q: %w", j.Name, err)
			}
		}
		cores[j.Core].queue = append(cores[j.Core].queue, j)
		results[j] = &JobResult{Name: j.Name, Core: j.Core, Start: -1}
	}
	return cores, results, nil
}

// stepCore executes one core's slice of one simulated cycle: admit queued
// jobs into free context slots (FCFS, respecting arrival times), then step
// every active context against the fabric, retiring finished jobs. It is
// the single per-cycle body of the event-driven and the strict loop —
// equivalence across modes holds by construction because both run this
// code.
func (e *Engine) stepCore(ci int, cs *coreState, cycle int64,
	results map[*Job]*JobResult, remaining *int) error {
	for len(cs.contexts) < cs.maxCtx && len(cs.queue) > 0 && cs.queue[0].Arrival <= cycle {
		j := cs.queue[0]
		cs.queue = cs.queue[1:]
		ctx := newContext(j, ci, e.Probe)
		cs.contexts = append(cs.contexts, ctx)
		results[j].Start = cycle
	}
	cs.stale = true
	live := cs.contexts[:0]
	for _, ctx := range cs.contexts {
		if err := ctx.step(cycle, cs, e.Fabric); err != nil {
			return fmt.Errorf("job %q: %w", ctx.job.Name, err)
		}
		if ctx.finished() {
			r := results[ctx.job]
			r.End = cycle
			r.ComputeBusy = ctx.computeBusy
			r.UnitWait = ctx.unitWait
			r.DMAWait = ctx.dmaWait
			r.DMABytes = ctx.dmaBytes
			r.Activity = ctx.act
			r.CollectiveCycles = ctx.collCycles
			r.Collectives = ctx.collCount
			*remaining--
			if e.Probe != nil {
				e.Probe.Span(obs.CoreTrack(ci, obs.LaneJobs), ctx.job.Name,
					r.Start, cycle, obs.SpanInfo{Bytes: r.DMABytes})
			}
		} else {
			live = append(live, ctx)
		}
	}
	cs.contexts = live
	return nil
}

// deliver hands completed requests back to their owning contexts and
// recycles the request records into the issuing core's pool.
func (e *Engine) deliver(cores []*coreState, cycle int64) {
	for _, req := range e.Fabric.Completed() {
		owner := req.owner
		owner.dmaDone(req, cycle)
		req.owner = nil
		cs := cores[req.Core]
		cs.reqPool = append(cs.reqPool, req)
		cs.stale = true
	}
}

// Run executes all jobs to completion and returns timing results: the
// event-driven loop, or with StrictTick the per-cycle polling loop.
func (e *Engine) Run(jobs []*Job) (Result, error) {
	cores, results, err := e.prepare(jobs)
	if err != nil {
		return Result{}, err
	}
	if e.Probe != nil {
		e.registerTracks(len(cores))
	}
	maxCycles := e.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	var clk sim.Clock
	// The fabric is driven through a kernel meter so every run knows how
	// many cycles the memory system was actually ticked versus skipped.
	meter := sim.Meter{C: e.Fabric}
	// fabricDue is the next cycle the fabric has work (each core's is
	// coreState.due). StrictTick leaves it 0: the fabric ticks on every
	// cycle.
	var fabricDue int64
	remaining := len(jobs)
	for remaining > 0 {
		if !e.StrictTick {
			// Event-driven advance: jump the clock to just before the
			// earliest cycle at which any context wakes, any job becomes
			// admissible, or the fabric has work.
			var next int64
			fabricDue, next = e.nextEvents(clk.Now(), cores)
			if next == sim.Never {
				return Result{}, e.deadlockError(clk.Now(), remaining, cores, "no future event")
			}
			if next > clk.Now()+1 {
				meter.SkipTo(next - 1)
				clk.SkipTo(next - 1)
			}
		}
		cycle := clk.Tick()
		if cycle > maxCycles {
			return Result{}, e.deadlockError(cycle, remaining, cores,
				fmt.Sprintf("exceeded max cycles (%d)", maxCycles))
		}
		for ci, cs := range cores {
			if cs.due > cycle {
				continue // stepping a core before its next event is a no-op
			}
			if err := e.stepCore(ci, cs, cycle, results, &remaining); err != nil {
				return Result{}, err
			}
		}
		// A fabric that was not due may have been given work this cycle by
		// the cores' submissions; if not, ticking it would be a no-op.
		if fabricDue <= cycle || e.Fabric.NextEvent() <= cycle {
			meter.Tick()
			e.deliver(cores, cycle)
		} else {
			meter.SkipTo(cycle)
		}
	}
	if e.Probe != nil {
		e.Probe.Counter(obs.FabricTrack, "fabric.busy_cycles", clk.Now(), float64(meter.Ticked))
		e.Probe.Counter(obs.FabricTrack, "fabric.skipped_cycles", clk.Now(), float64(meter.Skipped))
	}
	res := Result{Cycles: clk.Now()}
	for _, j := range jobs {
		res.Jobs = append(res.Jobs, *results[j])
	}
	for _, cs := range cores {
		res.Cores = append(res.Cores, cs.stats)
	}
	return res, nil
}

// registerTracks names the Perfetto track rows once per run: one process
// group per core with a lane per compute unit plus DMA and stall lanes,
// and the shared fabric track.
func (e *Engine) registerTracks(cores int) {
	for ci := 0; ci < cores; ci++ {
		proc := fmt.Sprintf("core %d", ci)
		e.Probe.TrackName(obs.CoreTrack(ci, obs.LaneJobs), proc, "jobs")
		e.Probe.TrackName(obs.CoreTrack(ci, obs.LaneSA), proc, "SA")
		e.Probe.TrackName(obs.CoreTrack(ci, obs.LaneVector), proc, "vector")
		e.Probe.TrackName(obs.CoreTrack(ci, obs.LaneSparse), proc, "sparse")
		e.Probe.TrackName(obs.CoreTrack(ci, obs.LaneDMA), proc, "DMA")
		e.Probe.TrackName(obs.CoreTrack(ci, obs.LaneStall), proc, "stall")
		e.Probe.TrackName(obs.CoreTrack(ci, obs.LaneEnergy), proc, "energy")
	}
	e.Probe.TrackName(obs.FabricTrack, "memory", "fabric")
	e.Probe.TrackName(obs.DRAMTrack, "memory", "DRAM")
	e.Probe.TrackName(obs.NoCTrack, "memory", "NoC")
	e.Probe.TrackName(obs.LinkTrack, "memory", "link")
}

// nextEvents folds the next-event estimates of every model: it refreshes
// each stale core's due (coreNextEvent) and returns the fabric's own
// earliest activity (which also covers contexts blocked on DMA
// completions) and the earliest of them all, which is > now; sim.Never
// means nothing can ever happen.
func (e *Engine) nextEvents(now int64, cores []*coreState) (fabric, next int64) {
	fabric = e.Fabric.NextEvent()
	next = fabric
	for _, cs := range cores {
		if cs.stale {
			cs.due, cs.stale = coreNextEvent(cs, now), false
		}
		next = min(next, cs.due)
	}
	return fabric, max(next, now+1)
}

// coreNextEvent is one core's next event: the earliest cycle > cycle at
// which stepCore for this core would not be a no-op — a queued job
// becoming admissible into a free slot, or a context wake-up. Run steps a
// core only at this cycle and caches it in coreState.due.
func coreNextEvent(cs *coreState, cycle int64) int64 {
	next := sim.Never
	if len(cs.queue) > 0 && len(cs.contexts) < cs.maxCtx {
		at := cs.queue[0].Arrival
		if at <= cycle {
			return cycle + 1
		}
		next = at
	}
	for _, ctx := range cs.contexts {
		if w := ctx.nextWake(cycle); w < next {
			if w <= cycle+1 {
				return cycle + 1
			}
			next = w
		}
	}
	return next
}

// deadlockError reports which jobs are stuck and why (including each
// context's oldest pending DMA), so hangs are diagnosable instead of a
// bare cycle count.
func (e *Engine) deadlockError(cycle int64, remaining int, cores []*coreState, cause string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "togsim: %s at cycle %d with %d jobs unfinished", cause, cycle, remaining)
	sep := ": "
	for ci, cs := range cores {
		for _, ctx := range cs.contexts {
			fmt.Fprintf(&b, "%sjob %q (core %d) %s", sep, ctx.job.Name, ci, ctx.stall(cycle))
			sep = "; "
		}
		for _, j := range cs.queue {
			fmt.Fprintf(&b, "%sjob %q queued on core %d (arrival %d)", sep, j.Name, ci, j.Arrival)
			sep = "; "
		}
	}
	if p := e.Fabric.Pending(); p > 0 {
		fmt.Fprintf(&b, "%sfabric has %d bursts in flight", sep, p)
	}
	return &DeadlockError{Cycle: cycle, Remaining: remaining, Detail: b.String()}
}

// RunSingle is a convenience wrapper: one TOG, one core, one base map.
func (e *Engine) RunSingle(g *tog.TOG, bases map[string]uint64) (Result, error) {
	return e.Run([]*Job{{Name: g.Name, TOGs: []*tog.TOG{g}, Bases: []map[string]uint64{bases}, Core: 0}})
}
