package main

import (
	"fmt"
	"math/rand"
)

// jobSpec is the part of ptsimd's JSON job request the benchmark uses. It
// is declared here so the clients speak the wire format, as a sweep script
// would, not the service's Go types.
type jobSpec struct {
	Model    string `json:"model"`
	Batch    int    `json:"batch,omitempty"`
	N        int    `json:"n,omitempty"`
	Ctx      int    `json:"ctx,omitempty"`
	Net      string `json:"net,omitempty"`
	Topology string `json:"topology,omitempty"`
	Parallel string `json:"parallel,omitempty"`
	NPU      string `json:"npu,omitempty"`
}

// label is the key a spec's pinned cycle count is stored under.
func (s jobSpec) label() string {
	l := s.Model
	if s.N != 0 {
		l += fmt.Sprintf("/n%d", s.N)
	}
	if s.Batch != 0 {
		l += fmt.Sprintf("/b%d", s.Batch)
	}
	if s.Ctx != 0 {
		l += fmt.Sprintf("/ctx%d", s.Ctx)
	}
	if s.Net != "" {
		l += "/" + s.Net
	}
	if s.Topology != "" {
		l += "/" + s.Topology + "-" + s.Parallel
	}
	if s.NPU != "" {
		l += "@" + s.NPU
	}
	return l
}

// The repeated pool, twenty specs. The cheap half costs 5-60 ms of host
// time per job, the heavy half 130-200 ms. Heavy jobs are repeated so that
// they are the majority: the median latency then falls inside the heavy
// cluster, where jobs cost nearly the same, and not in the gap between the
// two clusters, where one rank more or less would move it by a factor.
func fullCheapJobs() []jobSpec {
	return []jobSpec{
		{Model: "gemm", N: 128}, {Model: "gemm", N: 192}, {Model: "gemm", N: 256},
		{Model: "gemm", N: 320}, {Model: "gemm", N: 384}, {Model: "gemm", N: 512},
		{Model: "gemm", N: 256, Net: "cn"},
		{Model: "mlp", Batch: 1}, {Model: "mlp", Batch: 8}, {Model: "mlp", Batch: 32},
	}
}

func fullHeavyJobs() []jobSpec {
	out := []jobSpec{{Model: "decoder-small", Batch: 1, Ctx: 64, Topology: "pkg2", Parallel: "tensor"}}
	for _, b := range []int{1, 2, 4} {
		for _, ctx := range []int{64, 128, 256} {
			out = append(out, jobSpec{Model: "decoder-small", Batch: b, Ctx: ctx})
		}
	}
	return out
}

// coldGemms lists square GEMMs at every multiple of 8 in [lo, hi] except
// the sizes the repeated pool already uses. Odd tile remainders give new
// kernel signatures, so these compile cold down to kernel measurement.
func coldGemms(lo, hi int, npu string, skip ...int) []jobSpec {
	var out []jobSpec
next:
	for n := lo; n <= hi; n += 8 {
		for _, s := range skip {
			if n == s {
				continue next
			}
		}
		out = append(out, jobSpec{Model: "gemm", N: n, NPU: npu})
	}
	return out
}

// coldDecoders lists decode shapes over batch 1..maxBatch and the given
// context lengths except those in the repeated pool. They miss the compile
// cache but mostly reuse measured kernels, the other kind of cold.
func coldDecoders(model string, maxBatch int, ctxs []int, pool []jobSpec) []jobSpec {
	seen := map[jobSpec]bool{}
	for _, p := range pool {
		seen[p] = true
	}
	var out []jobSpec
	for b := 1; b <= maxBatch; b++ {
		for _, ctx := range ctxs {
			if s := (jobSpec{Model: model, Batch: b, Ctx: ctx}); !seen[s] {
				out = append(out, s)
			}
		}
	}
	return out
}

// allJobSpecs is every spec a job list can hold: what expected.json pins.
func (p *profile) allJobSpecs() []jobSpec {
	var out []jobSpec
	out = append(out, p.jobsCheap...)
	out = append(out, p.jobsHeavy...)
	out = append(out, p.coldCheap...)
	out = append(out, p.coldHeavy...)
	return out
}

// warmPool is the repeated pool, each spec once: the warm-up pass.
func (p *profile) warmPool() []jobSpec {
	return append(append([]jobSpec(nil), p.jobsCheap...), p.jobsHeavy...)
}

type streamJob struct {
	spec jobSpec
	cold bool
}

// jobList builds the seeded job list for the closed-loop clients. It is a
// sequence of blocks; every block holds the same repeated jobs (each cheap
// spec once, each heavy spec heavyRepeat times) plus a fixed number of
// never-seen shapes, shuffled. The seed decides the order inside a block
// and which never-seen shapes it draws, never how much work a block is, so
// runs with different seeds do the same amount of work per job completed.
// When a cold pool runs out it is reused, so its shapes are then warm.
func jobList(p *profile, seed int64, blocks int) []streamJob {
	rng := rand.New(rand.NewSource(seed))
	coldCheap := append([]jobSpec(nil), p.coldCheap...)
	coldHeavy := append([]jobSpec(nil), p.coldHeavy...)
	rng.Shuffle(len(coldCheap), func(i, j int) { coldCheap[i], coldCheap[j] = coldCheap[j], coldCheap[i] })
	rng.Shuffle(len(coldHeavy), func(i, j int) { coldHeavy[i], coldHeavy[j] = coldHeavy[j], coldHeavy[i] })
	var out []streamJob
	nc, nh := 0, 0
	for b := 0; b < blocks; b++ {
		var block []streamJob
		for _, s := range p.jobsCheap {
			block = append(block, streamJob{spec: s})
		}
		for r := 0; r < p.heavyRepeat; r++ {
			for _, s := range p.jobsHeavy {
				block = append(block, streamJob{spec: s})
			}
		}
		for i := 0; i < p.coldCheapPerBlock; i++ {
			block = append(block, streamJob{spec: coldCheap[nc%len(coldCheap)], cold: nc < len(coldCheap)})
			nc++
		}
		for i := 0; i < p.coldHeavyPerBlk; i++ {
			block = append(block, streamJob{spec: coldHeavy[nh%len(coldHeavy)], cold: nh < len(coldHeavy)})
			nh++
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}
