package crosscheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/npu"
	"repro/internal/obs/report"
)

// checkEnergy enforces the energy-accounting contract end to end: the
// activity counters are bit-identical across the event-driven and
// strict-tick engines (so the floats derived from them are too); the
// per-unit energy breakdown sums exactly — bitwise, not within a tolerance
// — to the reported total; and deriving the energy report reads the Result
// without mutating it.
func (ck *Checker) checkEnergy(cs Case, art *artifacts) error {
	cfg := cs.NPU
	if cfg.Energy.IsZero() {
		// Energy derivation is post-hoc, so pricing a table the case did not
		// carry cannot change any simulation result.
		cfg.Energy = npu.DefaultEnergyTable()
	}

	totals := func(strict bool) (report.ActivityTotals, error) {
		_, in, err := cs.runEngine(art.comp, strict, nil)
		return report.Totals(in.Res, in.Mem, in.NoCFlits, in.LinkFlits), err
	}
	event, err := totals(false)
	if err != nil {
		return fmt.Errorf("event run: %v", err)
	}
	strict, err := totals(true)
	if err != nil {
		return fmt.Errorf("strict run: %v", err)
	}
	if event != strict {
		return fmt.Errorf("activity counters diverge: event %+v != strict %+v", event, strict)
	}
	if event.SAMacCycles+event.VectorCycles+event.SparseCycles == 0 {
		return fmt.Errorf("no compute activity counted: %+v", event)
	}

	e := report.BuildEnergy(cfg, event)
	if e == nil {
		return fmt.Errorf("BuildEnergy returned nil for a non-zero table")
	}
	var sum float64
	for _, u := range e.UnitMilliJ() {
		sum += u.MJ
	}
	// Exact float equality is intended: TotalMilliJ is defined as the sum of
	// the unit fields in declaration order, the same expression as above.
	if sum != e.TotalMilliJ {
		return fmt.Errorf("per-unit breakdown sums to %v mJ, total reports %v mJ", sum, e.TotalMilliJ)
	}
	if e.TotalMilliJ <= 0 {
		return fmt.Errorf("non-positive total energy %v mJ for active run %+v", e.TotalMilliJ, event)
	}
	if other := report.BuildEnergy(cfg, strict); !reflect.DeepEqual(e, other) {
		return fmt.Errorf("derived energy diverges across engines: %+v != %+v", e, other)
	}

	// Building the full report (the surface every CLI renders) must leave
	// the engine Result byte-identical — energy accounting is read-only.
	before, err := json.Marshal(art.tls)
	if err != nil {
		return err
	}
	_ = report.Build(cfg, report.Inputs{Res: art.tls})
	after, err := json.Marshal(art.tls)
	if err != nil {
		return err
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("report.Build mutated the engine Result")
	}
	return nil
}
