package report

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// ServeRequestReport is one request's lifecycle through the serving loop,
// in simulated cycles and derived milliseconds.
type ServeRequestReport struct {
	ID           string  `json:"id"`
	ArrivalCycle int64   `json:"arrival_cycle"`
	Prompt       int     `json:"prompt_tokens"`
	Output       int     `json:"output_tokens"`
	FirstToken   int64   `json:"first_token_cycle"` // prefill completion
	Finished     int64   `json:"finished_cycle"`
	TTFTMs       float64 `json:"ttft_ms"`           // first token − arrival
	TPOTMs       float64 `json:"tpot_ms,omitempty"` // mean decode latency per token after the first
}

// BatchSample is one point of the batch-occupancy timeline: how many
// requests were decoded together in the iteration ending at Cycle.
type BatchSample struct {
	Cycle int64 `json:"cycle"`
	Batch int   `json:"batch"`
}

// ServeReport is the outcome of one continuous-batching serving run. All
// latency fields are simulated time; WallMs is the only host-time field and
// is deliberately NOT set by the generator so that two runs of the same
// seeded scenario produce identical reports (the serve-determinism oracle
// compares them with DeepEqual).
type ServeReport struct {
	Model    string `json:"model"`
	NPU      string `json:"npu,omitempty"`
	FreqMHz  int    `json:"freq_mhz"`
	MaxBatch int    `json:"max_batch"`
	KVBlock  int    `json:"kv_block"`

	Requests    int     `json:"requests"`
	TokensOut   int64   `json:"tokens_out"`
	Cycles      int64   `json:"cycles"` // makespan: last request finished
	SimulatedMs float64 `json:"simulated_ms"`
	WallMs      float64 `json:"wall_ms,omitempty"` // set by callers, never by the generator

	TokensPerSec float64 `json:"tokens_per_sec"` // per simulated second

	TTFTp50Ms float64 `json:"ttft_p50_ms"`
	TTFTp99Ms float64 `json:"ttft_p99_ms"`
	TPOTp50Ms float64 `json:"tpot_p50_ms"`
	TPOTp99Ms float64 `json:"tpot_p99_ms"`

	// Shape reuse of the autoregressive loop, counted inside this run: each
	// distinct prompt shape and (batch, padded-KV) decode shape is compiled
	// and simulated once, and every later iteration at it is a hit, so
	// Hits = Runs/Steps − Shapes whatever the compile cache held before.
	PrefillRuns   int64 `json:"prefill_runs"`
	PrefillHits   int64 `json:"prefill_cache_hits"`
	PrefillShapes int   `json:"prefill_shapes"`
	DecodeSteps   int64 `json:"decode_steps"`
	DecodeHits    int64 `json:"decode_cache_hits"`
	DecodeShapes  int   `json:"decode_shapes"`

	// AvgBatchOccupancy is the decode-cycle-weighted mean batch size — how
	// full the continuous batch actually ran.
	AvgBatchOccupancy float64 `json:"avg_batch_occupancy"`

	// Energy, derived post-hoc from per-phase activity totals (nil when the
	// config has no energy table). Phase energies and per-unit breakdowns
	// are deterministic functions of the int64 activity counters, so the
	// serve-determinism oracle's DeepEqual covers them automatically.
	PrefillEnergy *EnergyReport `json:"prefill_energy,omitempty"`
	DecodeEnergy  *EnergyReport `json:"decode_energy,omitempty"`
	TotalEnergyMJ float64       `json:"total_energy_mj,omitempty"`
	// EnergyPerTokenMJ is total serving energy amortized over every token
	// produced — the LLM serving efficiency figure the bench sweeps.
	EnergyPerTokenMJ float64 `json:"energy_per_token_mj,omitempty"`
	AvgPowerW        float64 `json:"avg_power_w,omitempty"`

	PerRequest []ServeRequestReport `json:"per_request,omitempty"`
	Timeline   []BatchSample        `json:"timeline,omitempty"`
}

// Clone returns a deep copy of r: the copy shares no slice element or
// pointee with r, so a caller may mutate either freely.
func (r ServeReport) Clone() ServeReport {
	r.PrefillEnergy = clonePtr(r.PrefillEnergy)
	r.DecodeEnergy = clonePtr(r.DecodeEnergy)
	r.PerRequest = slices.Clone(r.PerRequest)
	r.Timeline = slices.Clone(r.Timeline)
	return r
}

// Percentile returns the nearest-rank q-th percentile of xs (q in (0,100]).
// It sorts a copy; an empty input yields 0.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Summary is the one-line serving summary (cmd/e2e's
// TestPtserveZeroFlagMeansWireDefault reads its request count).
func (r ServeReport) Summary() string {
	return fmt.Sprintf("%d requests, %d tokens in %.3f ms simulated (%.0f tokens/s)",
		r.Requests, r.TokensOut, r.SimulatedMs, r.TokensPerSec)
}

// Text renders the multi-line serving breakdown: latency percentiles,
// compile-cache behaviour of the prefill/decode loop, and batch occupancy.
func (r ServeReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving %q: %s\n", r.Model, r.Summary())
	fmt.Fprintf(&b, "TTFT p50 %.3f ms, p99 %.3f ms; TPOT p50 %.3f ms, p99 %.3f ms\n",
		r.TTFTp50Ms, r.TTFTp99Ms, r.TPOTp50Ms, r.TPOTp99Ms)
	fmt.Fprintf(&b, "prefill: %d runs over %d shapes (%d cache hits); decode: %d steps over %d shapes (%d cache hits)\n",
		r.PrefillRuns, r.PrefillShapes, r.PrefillHits, r.DecodeSteps, r.DecodeShapes, r.DecodeHits)
	fmt.Fprintf(&b, "batch occupancy: avg %.2f of max %d (kv block %d)\n",
		r.AvgBatchOccupancy, r.MaxBatch, r.KVBlock)
	if r.TotalEnergyMJ > 0 {
		pf, dc := 0.0, 0.0
		if r.PrefillEnergy != nil {
			pf = r.PrefillEnergy.TotalMilliJ
		}
		if r.DecodeEnergy != nil {
			dc = r.DecodeEnergy.TotalMilliJ
		}
		fmt.Fprintf(&b, "energy: %.3f mJ total (prefill %.3f, decode %.3f); %.4f mJ/token; %.2f W average\n",
			r.TotalEnergyMJ, pf, dc, r.EnergyPerTokenMJ, r.AvgPowerW)
	}
	for _, rr := range r.PerRequest {
		fmt.Fprintf(&b, "request %s: arrive @%d, first token @%d (TTFT %.3f ms), done @%d, %d+%d tokens\n",
			rr.ID, rr.ArrivalCycle, rr.FirstToken, rr.TTFTMs, rr.Finished, rr.Prompt, rr.Output)
	}
	return b.String()
}
