package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/service"
)

// llmModel is the decoder the LLM table studies.
const llmModel = "decoder-small"

// llmServe is the table's serving run: a seeded Poisson trace through the
// continuous-batching scheduler.
var llmServe = service.ServeSpec{Requests: 8, Prompt: 64, Output: 16, RatePerSec: 2000, MaxBatch: 4, KVBlock: 64, Seed: 1}

// text is a rendered table.
type text string

func (t text) String() string { return string(t) }

// exact prints a float at the shortest precision that reads back as the
// same value, so a table cell is the simulator's own number.
func exact(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

// llm renders the LLM table: decoder-small prefill and decode iterations
// over batch × context (with energy for decode steps), a ctx-128 decode
// step over packages × parallelism, and one serving run. Every point is a
// job spec run through svc's one run funnel, Service.Simulate, on the
// TPUv3 preset, so each distinct spec is simulated once: the one-package
// point is the batch-1 ctx-128 decode step, a result-cache hit.
func llm(svc *service.Service) (text, error) {
	run := func(spec service.JobSpec) (service.JobResult, error) {
		spec.Model, spec.NPU = llmModel, preset
		return svc.Simulate(spec, nil)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "LLM inference on %s: prefill and decode iterations (energy for decode steps)\n", llmModel)
	it := &exp.Table{Header: []string{"batch", "ctx", "phase", "cycles", "simulated ms", "tokens/iter", "cycles/token",
		"mJ", "mJ/token", "pJ/cycle", "static", "DRAM", "SA"}}
	for _, batch := range []int{1, 4} {
		for _, ctx := range []int{64, 128, 256} {
			for _, prefill := range []bool{true, false} {
				res, err := run(service.JobSpec{Batch: batch, Ctx: ctx, Prefill: prefill})
				if err != nil {
					return "", err
				}
				// A prefill pass reads every sequence's whole prompt; a
				// decode step emits one token per sequence.
				phase, tokens := "decode", batch
				if prefill {
					phase, tokens = "prefill", batch*ctx
				}
				row := []string{strconv.Itoa(batch), strconv.Itoa(ctx), phase, strconv.FormatInt(res.Cycles, 10),
					exact(res.SimulatedMs), strconv.Itoa(tokens), fmt.Sprintf("%.1f", float64(res.Cycles)/float64(tokens))}
				if e := res.Report.Energy; prefill {
					row = append(row, "-", "-", "-", "-", "-", "-")
				} else {
					row = append(row, exact(e.TotalMilliJ), fmt.Sprintf("%.6f", e.TotalMilliJ/float64(tokens)),
						fmt.Sprintf("%.1f", e.PJPerCycle), fmt.Sprintf("%.4f", e.StaticMilliJ/e.TotalMilliJ),
						fmt.Sprintf("%.4f", e.DRAMMilliJ/e.TotalMilliJ), fmt.Sprintf("%.4f", e.SAMilliJ/e.TotalMilliJ))
				}
				it.Add(row...)
			}
		}
	}
	b.WriteString(it.String())

	b.WriteString("\nMulti-package decode, ctx 128 (speedup in cycles/token over one package)\n")
	pt := &exp.Table{Header: []string{"packages", "parallel", "cycles", "tokens/step", "cycles/token", "speedup",
		"mJ", "mJ/token", "link flits", "collective cycles", "collective share"}}
	var base float64
	for _, p := range []struct {
		packages           int
		topology, parallel string
	}{{1, "single", "none"}, {2, "pkg2", "data"}, {2, "pkg2", "tensor"}, {4, "mesh2x2", "data"}, {4, "mesh2x2", "tensor"}} {
		res, err := run(service.JobSpec{Ctx: 128, Topology: p.topology, Parallel: p.parallel})
		if err != nil {
			return "", err
		}
		// Data parallelism runs one model replica per package, so a step
		// emits one token per package; tensor parallelism runs one.
		tokens := 1
		if p.parallel == "data" {
			tokens = p.packages
		}
		cpt := float64(res.Cycles) / float64(tokens)
		if base == 0 {
			base = cpt
		}
		var flits, coll int64
		if t := res.Report.Topology; t != nil {
			flits, coll = t.LinkFlits, t.CollectiveCycles
		}
		e := res.Report.Energy
		pt.Add(strconv.Itoa(p.packages), p.parallel, strconv.FormatInt(res.Cycles, 10), strconv.Itoa(tokens),
			fmt.Sprintf("%.1f", cpt), exp.Speedup(base/cpt), exact(e.TotalMilliJ),
			fmt.Sprintf("%.6f", e.TotalMilliJ/float64(tokens)), strconv.FormatInt(flits, 10), strconv.FormatInt(coll, 10),
			fmt.Sprintf("%.4f", float64(coll)/(float64(res.Cycles)*float64(p.packages))))
	}
	b.WriteString(pt.String())

	sv := llmServe
	res, err := run(service.JobSpec{Serve: &sv})
	if err != nil {
		return "", err
	}
	s := res.ServeReport
	fmt.Fprintf(&b, "\nServing: %d requests, prompt %d, gen %d, Poisson %g/s, max batch %d, kv block %d, seed %d\n",
		sv.Requests, sv.Prompt, sv.Output, sv.RatePerSec, sv.MaxBatch, sv.KVBlock, sv.Seed)
	st := &exp.Table{Header: []string{"metric", "value"}}
	for _, kv := range [][2]string{
		{"requests", strconv.Itoa(s.Requests)},
		{"tokens out", strconv.FormatInt(s.TokensOut, 10)},
		{"simulated ms", exact(s.SimulatedMs)},
		{"tokens/s", fmt.Sprintf("%.1f", s.TokensPerSec)},
		{"TTFT p50 ms", exact(s.TTFTp50Ms)},
		{"TTFT p99 ms", exact(s.TTFTp99Ms)},
		{"TPOT p50 ms", exact(s.TPOTp50Ms)},
		{"TPOT p99 ms", exact(s.TPOTp99Ms)},
		{"batch occupancy", exact(s.AvgBatchOccupancy)},
		{"prefill runs", strconv.FormatInt(s.PrefillRuns, 10)},
		{"decode steps", strconv.FormatInt(s.DecodeSteps, 10)},
		{"decode cache hits", strconv.FormatInt(s.DecodeHits, 10)},
		{"decode shapes", strconv.Itoa(s.DecodeShapes)},
		{"prefill mJ", exact(s.PrefillEnergy.TotalMilliJ)},
		{"decode mJ", exact(s.DecodeEnergy.TotalMilliJ)},
		{"total mJ", exact(s.TotalEnergyMJ)},
		{"mJ/token", exact(s.EnergyPerTokenMJ)},
		{"average W", exact(s.AvgPowerW)},
		{"area mm2", exact(s.DecodeEnergy.AreaMM2)},
	} {
		st.Add(kv[0], kv[1])
	}
	b.WriteString(st.String())
	return text(b.String()), nil
}
