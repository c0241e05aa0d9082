package service

import (
	"fmt"
	"sync"
)

// tileCaps are the M-tile caps AutoTune sweeps: 0 is the compiler's own
// heuristic, the others cap its M tile. Smaller M tiles trade scratchpad
// reuse for finer DMA-compute overlap; which wins depends on the layer's
// aspect ratio and the memory system, which is exactly why the sweep runs
// each candidate through TLS instead of scoring a static model.
var tileCaps = []int{0, 32, 64, 128}

// AutoTune is the simulator doubling as the compiler's cost model: it runs
// spec once per M-tile cap in tileCaps through Simulate, concurrently, and
// returns the winning cap with its result. Every candidate goes through the
// service's caches, so a kernel shape common to several candidates is
// measured once, and a candidate already simulated (the heuristic's, after
// a plain run of spec) is a result hit. A candidate that fails (a tile that
// does not fit, a deadlock) is skipped. The winner has the fewest cycles,
// or with energyDelay the least cycles x total energy (cycles alone when
// the machine has no energy table); ties go to the earliest cap. The score
// is a deterministic function of each candidate's result, so the same spec
// picks the same winner on every sweep.
func (s *Service) AutoTune(spec JobSpec, energyDelay bool) (int, JobResult, error) {
	if _, err := spec.Resolve(); err != nil {
		return 0, JobResult{}, err
	}
	if spec.Serve != nil {
		return 0, JobResult{}, fmt.Errorf("service: autotune does not sweep serving jobs")
	}
	results := make([]*JobResult, len(tileCaps))
	var wg sync.WaitGroup
	for i, mt := range tileCaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cand := spec.Clone()
			cand.MaxMt = mt
			// Untraced: concurrent candidates would interleave on one probe.
			if res, err := s.Simulate(cand, nil); err == nil {
				results[i] = &res
			}
		}()
	}
	wg.Wait()

	best := -1
	var bestScore float64
	for i, res := range results {
		if res == nil {
			continue
		}
		score := float64(res.Cycles)
		if e := res.Report.Energy; energyDelay && e != nil {
			score *= e.TotalMilliJ
		}
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, JobResult{}, fmt.Errorf("service: no autotune candidate of %q ran", spec.Model)
	}
	return tileCaps[best], *results[best], nil
}
