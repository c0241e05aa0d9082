// Package sched implements the request generator and multi-tenant NPU
// scheduler of §3.10: a load generator produces per-model request streams
// with configurable arrival processes; the scheduler batches same-model
// requests, compiles each (model, batch) once into the TOG cache, and maps
// work onto cores with temporal or spatial sharing policies.
package sched

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/togsim"
)

// Request is one inference request for a named model.
type Request struct {
	Model   string
	Arrival int64 // cycle
}

// ArrivalKind selects the load generator's arrival process.
type ArrivalKind int

const (
	// Uniform spaces requests evenly.
	Uniform ArrivalKind = iota
	// Poisson draws exponential inter-arrival gaps.
	Poisson
)

// Profile describes one model's request stream (the "DNN request profile"
// of §3.10).
type Profile struct {
	Model    string
	Count    int
	MeanGap  int64 // mean inter-arrival gap in cycles
	Arrivals ArrivalKind
}

// Generate produces the merged, arrival-sorted request stream for the
// given profiles, deterministically from seed. Uniform streams arrive
// every MeanGap cycles; Poisson streams draw their gaps from one seeded
// source through PoissonArrivals, one profile after another.
func Generate(seed uint64, profiles []Profile) []Request {
	r := rand.New(rand.NewSource(int64(seed)))
	var out []Request
	for _, p := range profiles {
		var poisson []int64
		if p.Arrivals == Poisson {
			poisson = PoissonArrivals(r, p.Count, 1, float64(p.MeanGap))
		}
		for i := 0; i < p.Count; i++ {
			at := int64(i+1) * p.MeanGap
			if poisson != nil {
				at = poisson[i]
			}
			out = append(out, Request{Model: p.Model, Arrival: at})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out
}

// PoissonArrivals draws n arrival cycles of a Poisson process from r, at
// rate arrivals per unit of time, where one unit is cyclesPerUnit cycles:
// each gap is r.ExpFloat64() / rate * cyclesPerUnit, the gaps accumulate
// in floating point, and each arrival is the running sum truncated to a
// cycle. A non-positive rate puts every arrival at cycle 0. It is the one
// arrival generator: Generate and serve.PoissonTrace both draw from it.
func PoissonArrivals(r *rand.Rand, n int, rate, cyclesPerUnit float64) []int64 {
	out := make([]int64, n)
	var now float64
	for i := range out {
		if rate > 0 {
			now += r.ExpFloat64() / rate * cyclesPerUnit
		}
		out[i] = int64(now)
	}
	return out
}

// Policy selects how cores are shared among models (§3.10).
type Policy int

const (
	// Temporal shares every core among all models, FCFS.
	Temporal Policy = iota
	// Spatial partitions cores: model i owns cores congruent to i.
	Spatial
)

// CompiledJob is the scheduler's view of a compiled (model, batch): a
// factory for TOGSim jobs. The TOG cache (§3.10) lives behind CompileFn.
type CompiledJob interface {
	Job(name string, core, src int) *togsim.Job
}

// CompileFn compiles (or fetches from the TOG cache) a model at the given
// batch size.
type CompileFn func(model string, batch int) (CompiledJob, error)

// Memoize wraps a CompileFn with a per-(model, batch) memo table — the
// in-process ancestor of the content-addressed cache in internal/service.
// Schedule memoizes internally per call; wrap once and reuse the returned
// fn across Schedule invocations to also share compilations between them,
// or use service.SchedCompileFn for the daemon's shared cache (canonical
// hashing over model, shape, NPU config, and compiler options).
func Memoize(fn CompileFn) CompileFn {
	cache := map[string]CompiledJob{}
	return func(model string, batch int) (CompiledJob, error) {
		key := fmt.Sprintf("%s@%d", model, batch)
		if cj, ok := cache[key]; ok {
			return cj, nil
		}
		cj, err := fn(model, batch)
		if err != nil {
			return nil, fmt.Errorf("sched: compiling %s: %w", key, err)
		}
		cache[key] = cj
		return cj, nil
	}
}

// Batch groups consecutive same-model requests within window cycles into
// batches of at most maxBatch (the scheduler "creates a batch of requests
// that use the same DNN", §3.10).
type BatchedRequest struct {
	Model   string
	Arrival int64 // arrival of the last member (batch dispatch time)
	Size    int
}

// Batch merges the sorted request stream.
func Batch(reqs []Request, window int64, maxBatch int) []BatchedRequest {
	var out []BatchedRequest
	for i := 0; i < len(reqs); {
		b := BatchedRequest{Model: reqs[i].Model, Arrival: reqs[i].Arrival, Size: 1}
		j := i + 1
		for j < len(reqs) && b.Size < maxBatch &&
			reqs[j].Model == b.Model && reqs[j].Arrival-reqs[i].Arrival <= window {
			b.Arrival = reqs[j].Arrival
			b.Size++
			j++
		}
		out = append(out, b)
		i = j
	}
	return out
}

// Schedule maps batched requests onto cores, compiling each unique
// (model, batch) once, and returns the TOGSim jobs plus the model index
// used as the job source id.
func Schedule(batches []BatchedRequest, cores int, policy Policy, compile CompileFn) ([]*togsim.Job, error) {
	modelIdx := map[string]int{}
	for _, b := range batches {
		if _, ok := modelIdx[b.Model]; !ok {
			modelIdx[b.Model] = len(modelIdx)
		}
	}
	compile = Memoize(compile)
	rr := 0
	var jobs []*togsim.Job
	for i, b := range batches {
		cj, err := compile(b.Model, b.Size)
		if err != nil {
			return nil, err
		}
		src := modelIdx[b.Model]
		var core int
		switch policy {
		case Spatial:
			// Model m owns cores m, m+numModels, ...
			n := len(modelIdx)
			owned := cores / n
			if owned < 1 {
				owned = 1
			}
			core = (src + (rr/n%owned)*n) % cores
			rr++
		default: // Temporal: round-robin all cores
			core = rr % cores
			rr++
		}
		j := cj.Job(fmt.Sprintf("%s#%d", b.Model, i), core, src)
		j.Arrival = b.Arrival
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// Latency summarizes per-model request latency from an engine result,
// including the tail percentiles SLO studies care about (§3.3.3 motivates
// the scratchpad design with tail latency).
type Latency struct {
	Model      string
	Count      int
	MeanCycles float64
	P50Cycles  int64
	P95Cycles  int64
	P99Cycles  int64
	MaxCycles  int64
}

// Summarize computes per-model latency stats (End - Arrival) for jobs
// named "model#idx".
func Summarize(jobs []*togsim.Job, results []togsim.JobResult) []Latency {
	byModel := map[string][]int64{}
	var order []string
	for i, j := range jobs {
		model := j.Name
		for k := 0; k < len(model); k++ {
			if model[k] == '#' {
				model = model[:k]
				break
			}
		}
		if _, ok := byModel[model]; !ok {
			order = append(order, model)
		}
		byModel[model] = append(byModel[model], results[i].End-j.Arrival)
	}
	var out []Latency
	for _, m := range order {
		lats := byModel[m]
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		l := Latency{Model: m, Count: len(lats)}
		var sum float64
		for _, v := range lats {
			sum += float64(v)
		}
		l.MeanCycles = sum / float64(len(lats))
		l.P50Cycles = percentile(lats, 0.50)
		l.P95Cycles = percentile(lats, 0.95)
		l.P99Cycles = percentile(lats, 0.99)
		l.MaxCycles = lats[len(lats)-1]
		out = append(out, l)
	}
	return out
}

// percentile returns the p-quantile of a sorted slice (nearest-rank).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
