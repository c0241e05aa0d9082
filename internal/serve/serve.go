// Package serve is the LLM inference serving subsystem: it replays a trace
// of generation requests through an iteration-level continuous-batching
// scheduler, timing every prefill pass and decode step on the NPU timing
// model and accounting tokens, latencies, and shape reuse per request.
//
// The scheduler is the vLLM/Orca-style loop at iteration granularity:
// between any two NPU iterations, newly arrived requests are admitted (up
// to MaxBatch) and finished requests leave, so the decode batch grows and
// shrinks continuously instead of waiting for a full batch to drain.
//
// Every NPU iteration is one compiled graph timed on a fresh TLS engine, so
// serving cycles are bit-identical to a standalone ptsim run of the same
// shape. A run keeps one table of its iteration shapes, keyed by spec: each
// distinct shape is compiled and simulated once per run and then replayed
// (engine runs = PrefillShapes + DecodeShapes). Decode graphs are shaped by
// the KV length padded up to Config.KVBlock — the paged-KV trick that makes
// decode steps at nearby context lengths share one compiled artifact. The
// report's hits count reuse inside the run (iterations minus shapes), never
// what the compile path had cached before it, so a spec reports the same
// numbers however warm the caller is.
//
// All scheduling happens in simulated cycles; the report contains no host
// time, so a seeded scenario reproduces exactly (the serve-determinism
// crosscheck oracle relies on this).
package serve

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/obs/report"
	"repro/internal/sched"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// CompileFn resolves a model spec to its compiled artifact. The bool says
// whether a cache served it; serve ignores it, since a run counts reuse
// within itself. The service layer adapts its content-addressed compile
// cache to this signature; tests can substitute a plain compiler.
type CompileFn func(spec modelzoo.Spec) (*compiler.Compiled, bool, error)

// Request is one generation request in the arrival trace.
type Request struct {
	ID      string `json:"id"`
	Arrival int64  `json:"arrival"` // simulated cycle the request arrives
	Prompt  int    `json:"prompt"`  // prompt tokens (prefill length)
	Output  int    `json:"output"`  // tokens to generate (>= 1; first comes from prefill)
}

// Config parameterizes a serving run.
type Config struct {
	Model string     // decoder model name (modelzoo)
	NPU   npu.Config // target machine
	Net   togsim.NetKind

	MaxBatch int // continuous-batch capacity (default 4)
	KVBlock  int // KV-cache page size in tokens; decode KV lengths pad up to this (default 64)

	// Topo spreads every iteration across a multi-package mesh: each
	// prefill pass and decode step compiles the tensor-parallel rank graph
	// and runs one rank per package over the topology fabric. The zero
	// value (or a single-package config) keeps the single-engine path.
	// Parallel names the strategy carried into each iteration's spec
	// ("tensor" is the one that makes sense for serving).
	Topo     topo.Config
	Parallel string

	MaxCycles int64 // per-iteration deadlock guard (0 = engine default)

	Compile CompileFn // required

	// Probe, when non-nil, receives every iteration's engine trace events
	// shifted onto the continuous serve timeline (each iteration's engine
	// starts at cycle 0; an obs.OffsetProbe adds the iteration's start
	// cycle). A probed run simulates every iteration instead of replaying
	// repeated shapes, yet its report is the same — the serve-determinism
	// oracle compares probed and unprobed runs.
	Probe obs.Probe
}

func (c *Config) defaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	if c.KVBlock <= 0 {
		c.KVBlock = 64
	}
}

// PoissonTrace synthesizes n requests with exponential inter-arrival times
// at ratePerSec (simulated seconds, so arrival cycles scale with freqMHz),
// each with the given prompt and output lengths. The same seed always
// yields the same trace.
func PoissonTrace(seed int64, n int, ratePerSec float64, freqMHz, prompt, output int) []Request {
	arrivals := sched.PoissonArrivals(rand.New(rand.NewSource(seed)), n, ratePerSec, float64(freqMHz)*1e6)
	reqs := make([]Request, n)
	for i, at := range arrivals {
		reqs[i] = Request{
			ID:      fmt.Sprintf("r%d", i),
			Arrival: at,
			Prompt:  prompt,
			Output:  output,
		}
	}
	return reqs
}

// CtxDist is a per-request prompt-length distribution drawn at trace
// synthesis time (nil = every request keeps the fixed prompt length).
type CtxDist struct {
	Lo, Hi int // uniform inclusive bounds
}

// ParseCtxDist parses the user-facing distribution syntax: "" or "fixed"
// (nil — fixed prompts), or "uniform:lo,hi".
func ParseCtxDist(s string) (*CtxDist, error) {
	if s == "" || s == "fixed" {
		return nil, nil
	}
	var lo, hi int
	if n, err := fmt.Sscanf(s, "uniform:%d,%d", &lo, &hi); err != nil || n != 2 {
		return nil, fmt.Errorf("serve: bad ctx distribution %q (want uniform:lo,hi)", s)
	}
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("serve: ctx distribution bounds [%d,%d] need 1 <= lo <= hi", lo, hi)
	}
	return &CtxDist{Lo: lo, Hi: hi}, nil
}

// ApplyCtxDist redraws each request's prompt length from the distribution.
// The stream is seeded independently of the arrival process (same seed,
// different generator), so switching distributions never perturbs arrival
// times; the same seed and distribution always yield the same prompts.
func ApplyCtxDist(reqs []Request, d *CtxDist, seed int64) {
	if d == nil {
		return
	}
	r := rand.New(rand.NewSource(seed ^ 0x637864697374)) // "ctxdist"
	for i := range reqs {
		reqs[i].Prompt = d.Lo + r.Intn(d.Hi-d.Lo+1)
	}
}

// reqState is one admitted request's progress.
type reqState struct {
	Request
	firstToken int64 // cycle the prefill finished (first token)
	finished   int64
	generated  int // tokens produced so far (prefill yields the first)
}

// Run replays reqs through the continuous-batching scheduler and returns
// the serving report. It is deterministic: same config and trace, same
// report.
func Run(cfg Config, reqs []Request) (report.ServeReport, error) {
	cfg.defaults()
	if cfg.Compile == nil {
		return report.ServeReport{}, fmt.Errorf("serve: Config.Compile is required")
	}
	if cfg.NPU.FreqMHz <= 0 {
		return report.ServeReport{}, fmt.Errorf("serve: NPU config has no clock frequency")
	}
	for i, r := range reqs {
		if r.Prompt <= 0 || r.Output <= 0 {
			return report.ServeReport{}, fmt.Errorf("serve: request %d (%q) needs positive prompt and output", i, r.ID)
		}
	}
	return newRunState(cfg).run(reqs)
}

func newRunState(cfg Config) *runState {
	return &runState{cfg: cfg, shapes: map[modelzoo.Spec]*shape{}}
}

// run is Run's scheduler loop over a validated, defaulted config.
func (s *runState) run(reqs []Request) (report.ServeReport, error) {
	cfg := s.cfg
	waiting := append([]Request(nil), reqs...)
	sort.SliceStable(waiting, func(i, j int) bool {
		if waiting[i].Arrival != waiting[j].Arrival {
			return waiting[i].Arrival < waiting[j].Arrival
		}
		return waiting[i].ID < waiting[j].ID
	})

	var (
		running []*reqState
		done    []*reqState
		now     int64
	)
	for len(waiting) > 0 || len(running) > 0 {
		// Idle: jump to the next arrival.
		if len(running) == 0 && len(waiting) > 0 && waiting[0].Arrival > now {
			now = waiting[0].Arrival
		}
		// Admission: arrived requests join up to capacity. Each admission
		// runs its prompt prefill immediately (batch-1 pass), which advances
		// the clock and may make further requests eligible — hence the loop.
		admitted := false
		for len(waiting) > 0 && len(running) < cfg.MaxBatch && waiting[0].Arrival <= now {
			req := &reqState{Request: waiting[0]}
			waiting = waiting[1:]
			cycles, err := s.iterate(modelzoo.Spec{Model: cfg.Model, Batch: 1, Ctx: req.Prompt, Prefill: true}, now)
			if err != nil {
				return report.ServeReport{}, err
			}
			now += cycles
			req.firstToken = now
			req.generated = 1
			if req.generated >= req.Output {
				req.finished = now
				done = append(done, req)
			} else {
				running = append(running, req)
			}
			admitted = true
		}
		if admitted {
			continue // re-check arrivals before committing to a decode batch
		}
		if len(running) == 0 {
			continue
		}
		// One decode iteration over the whole batch at the padded KV length.
		kvCtx := 0
		for _, r := range running {
			if c := r.Prompt + r.generated; c > kvCtx {
				kvCtx = c
			}
		}
		kvLen := (kvCtx + cfg.KVBlock - 1) / cfg.KVBlock * cfg.KVBlock
		cycles, err := s.iterate(modelzoo.Spec{Model: cfg.Model, Batch: len(running), Ctx: kvLen}, now)
		if err != nil {
			return report.ServeReport{}, err
		}
		now += cycles
		s.timeline = append(s.timeline, report.BatchSample{Cycle: now, Batch: len(running)})
		s.occCycles += cycles
		s.occWeighted += cycles * int64(len(running))
		keep := running[:0]
		for _, r := range running {
			r.generated++
			if r.generated >= r.Output {
				r.finished = now
				done = append(done, r)
			} else {
				keep = append(keep, r)
			}
		}
		running = keep
	}
	return s.report(cfg, done, now), nil
}

// runState accumulates per-iteration accounting across the run.
type runState struct {
	cfg Config

	// shapes is the run's table of distinct iteration specs; every count
	// and activity total the report prints derives from it.
	shapes map[modelzoo.Spec]*shape

	timeline    []report.BatchSample
	occCycles   int64
	occWeighted int64
}

// shape is one distinct iteration spec of a run. Its artifact is kept for
// the rest of the run, so the shape is compiled once however few artifacts
// the compile path keeps. A fresh stack under the run's fixed NPU, net,
// topology and MaxCycles always simulates a spec to the same outcome, so
// an unprobed run simulates the shape once and replays that outcome.
type shape struct {
	comp *compiler.Compiled
	once report.ActivityTotals // one iteration's engine outcome, Cycles included
	runs int64                 // iterations at this shape
	act  report.ActivityTotals // activity summed over those iterations (plain int64s: deterministic)
}

// iterate runs one iteration of the given spec starting at serve cycle
// `at` and returns its cycles. A shape's first iteration compiles its graph
// and runs it through core.Simulator's run body — the same compile-then-
// simulate funnel as a standalone run, so iteration cycles are bit-identical
// to ptsim's, on one package or one rank per package of the serving
// topology. A later iteration at the shape reuses the run's artifact and
// replays the stored outcome.
func (s *runState) iterate(spec modelzoo.Spec, at int64) (int64, error) {
	if s.cfg.Topo.Packages() > 1 {
		spec.Topology, spec.Parallel = s.cfg.Topo.Name, s.cfg.Parallel
	}
	sh := s.shapes[spec]
	if sh == nil {
		comp, _, err := s.cfg.Compile(spec)
		if err != nil {
			return 0, err
		}
		sh = &shape{comp: comp}
		s.shapes[spec] = sh
	}
	// A probe needs every iteration's spans at its own serve offset, so a
	// probed run simulates every iteration instead of replaying.
	if sh.runs == 0 || s.cfg.Probe != nil {
		sim := core.Simulator{Cfg: s.cfg.NPU, Topo: s.cfg.Topo, MaxCycles: s.cfg.MaxCycles}
		if s.cfg.Probe != nil {
			// Stitch this iteration's spans onto the serve timeline: the
			// engine's cycle 0 is serve cycle `at`.
			sim.Probe = obs.OffsetProbe{Base: s.cfg.Probe, Delta: at}
		}
		rep, err := sim.SimulateTLS(sh.comp, s.cfg.Net)
		if err != nil {
			return 0, err
		}
		in := rep.Inputs()
		sh.once = report.Totals(in.Res, in.Mem, in.NoCFlits, in.LinkFlits)
	}
	sh.runs++
	sh.act.Add(sh.once)
	return sh.once.Cycles, nil
}

// report assembles the final ServeReport (no host time: deterministic).
func (s *runState) report(cfg Config, done []*reqState, end int64) report.ServeReport {
	sort.Slice(done, func(i, j int) bool {
		if done[i].Arrival != done[j].Arrival {
			return done[i].Arrival < done[j].Arrival
		}
		return done[i].ID < done[j].ID
	})
	freq := float64(cfg.NPU.FreqMHz) // cycles per microsecond
	toMs := func(cycles int64) float64 { return float64(cycles) / freq / 1e3 }

	r := report.ServeReport{
		Model:    cfg.Model,
		FreqMHz:  cfg.NPU.FreqMHz,
		MaxBatch: cfg.MaxBatch,
		KVBlock:  cfg.KVBlock,

		Requests:    len(done),
		Cycles:      end,
		SimulatedMs: toMs(end),

		Timeline: s.timeline,
	}
	// Per-phase activity roll-ups for the post-hoc energy derivation.
	var prefillAct, decodeAct report.ActivityTotals
	for spec, sh := range s.shapes {
		if spec.Prefill {
			r.PrefillShapes++
			r.PrefillRuns += sh.runs
			prefillAct.Add(sh.act)
		} else {
			r.DecodeShapes++
			r.DecodeSteps += sh.runs
			decodeAct.Add(sh.act)
		}
	}
	r.PrefillHits = r.PrefillRuns - int64(r.PrefillShapes)
	r.DecodeHits = r.DecodeSteps - int64(r.DecodeShapes)
	if s.occCycles > 0 {
		r.AvgBatchOccupancy = float64(s.occWeighted) / float64(s.occCycles)
	}
	var ttfts, tpots []float64
	for _, d := range done {
		rr := report.ServeRequestReport{
			ID:           d.ID,
			ArrivalCycle: d.Arrival,
			Prompt:       d.Prompt,
			Output:       d.Output,
			FirstToken:   d.firstToken,
			Finished:     d.finished,
			TTFTMs:       toMs(d.firstToken - d.Arrival),
		}
		if d.Output > 1 {
			rr.TPOTMs = toMs(d.finished-d.firstToken) / float64(d.Output-1)
			tpots = append(tpots, rr.TPOTMs)
		}
		ttfts = append(ttfts, rr.TTFTMs)
		r.TokensOut += int64(d.Output)
		r.PerRequest = append(r.PerRequest, rr)
	}
	if r.SimulatedMs > 0 {
		r.TokensPerSec = float64(r.TokensOut) / (r.SimulatedMs / 1e3)
	}
	r.TTFTp50Ms = report.Percentile(ttfts, 50)
	r.TTFTp99Ms = report.Percentile(ttfts, 99)
	r.TPOTp50Ms = report.Percentile(tpots, 50)
	r.TPOTp99Ms = report.Percentile(tpots, 99)

	// Per-phase energy, post-hoc from the accumulated activity counters.
	// Each phase's cycles are the sum of its iterations' engine cycles, so
	// static leakage is charged only while an engine was running (serve-
	// level idle gaps have no simulated hardware to leak). The total is the
	// exact sum of the two phase totals.
	r.PrefillEnergy = report.BuildEnergy(cfg.NPU, prefillAct)
	r.DecodeEnergy = report.BuildEnergy(cfg.NPU, decodeAct)
	if r.PrefillEnergy != nil || r.DecodeEnergy != nil {
		if r.PrefillEnergy != nil {
			r.TotalEnergyMJ += r.PrefillEnergy.TotalMilliJ
		}
		if r.DecodeEnergy != nil {
			r.TotalEnergyMJ += r.DecodeEnergy.TotalMilliJ
		}
		if r.TokensOut > 0 {
			r.EnergyPerTokenMJ = r.TotalEnergyMJ / float64(r.TokensOut)
		}
		if r.SimulatedMs > 0 {
			r.AvgPowerW = r.TotalEnergyMJ / r.SimulatedMs
		}
	}
	return r
}
