package crosscheck

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReproVersion is the schema version of the repro file format. Bump it on
// any incompatible Case change; Load rejects mismatched files instead of
// silently replaying a different workload than the one that diverged.
const ReproVersion = 1

// Repro is the serialized form of a divergence: the (shrunk) case, which
// oracle fired, and the detail observed — a one-file, one-command bug
// report (`ptsimcheck -replay file`).
type Repro struct {
	FormatVersion int    `json:"format_version"`
	Oracle        string `json:"oracle"`
	Detail        string `json:"detail"`
	// Fault records that the divergence was produced by the deliberate
	// fault-injection self-test, so a replay re-arms the same fault.
	Fault bool `json:"fault,omitempty"`
	Case  Case `json:"case"`
}

// NewRepro packages a failure for serialization, recording whether the
// checker had the deliberate fault armed so a replay re-arms it.
func NewRepro(f Failure, faulted bool) Repro {
	return Repro{FormatVersion: ReproVersion, Oracle: f.Oracle, Detail: f.Detail,
		Fault: faulted, Case: f.Case}
}

// Write serializes the repro to path as indented JSON.
func (r Repro) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro reads and validates a repro file.
func LoadRepro(path string) (Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return Repro{}, fmt.Errorf("crosscheck: parsing repro %s: %w", path, err)
	}
	if r.FormatVersion != ReproVersion {
		return Repro{}, fmt.Errorf("crosscheck: repro %s has format version %d, this build reads %d",
			path, r.FormatVersion, ReproVersion)
	}
	return r, nil
}

// Replay re-runs a repro's case through the full oracle set. If the repro
// came from the fault-injection self-test and the checker has no fault
// armed, the standard ±1 perturbation is re-armed so the replay reproduces
// the recorded divergence.
func (ck *Checker) Replay(r Repro) *Failure {
	if r.Fault && ck.Fault == nil {
		ck.Fault = PerturbTileLatency(1)
	}
	return ck.RunCase(r.Case)
}
