package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// expected.json pins every simulated result the workloads produce. The
// simulator is deterministic, so a change that is only meant to make it
// faster must reproduce these values exactly; any difference is counted as
// a failed operation. `-pin` rewrites the file after a change that is meant
// to alter simulated results.
//
//go:embed expected.json
var expectedJSON []byte

type expectedSet struct {
	// SimCycles: workload name -> simulated cycles of one rep.
	SimCycles map[string]int64 `json:"sim_cycles"`
	// CompileDigest: zoo spec -> fingerprint of the compiled artifact (TOG
	// structure, patched latencies, kernel-latency table, counters).
	CompileDigest map[string]string `json:"compile_digest"`
	// ServeCycles and ServeDigest: makespan and SHA-256 of the canonical
	// ServeReport JSON of the serving trace.
	ServeCycles int64  `json:"serve_cycles"`
	ServeDigest string `json:"serve_digest"`
	// JobCycles: job spec label -> cycles of that job's result.
	JobCycles map[string]int64 `json:"job_cycles"`

	mu      sync.Mutex
	pinning bool // record what is observed instead of checking it
}

type expectedFile struct {
	Full  *expectedSet `json:"full"`
	Quick *expectedSet `json:"quick"`
}

func newExpectedSet(pinning bool) *expectedSet {
	return &expectedSet{
		SimCycles:     map[string]int64{},
		CompileDigest: map[string]string{},
		JobCycles:     map[string]int64{},
		pinning:       pinning,
	}
}

func loadExpected() (*expectedFile, error) {
	f := &expectedFile{}
	if err := json.Unmarshal(expectedJSON, f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if f.Full == nil {
		f.Full = newExpectedSet(false)
	}
	if f.Quick == nil {
		f.Quick = newExpectedSet(false)
	}
	return f, nil
}

func (f *expectedFile) forProfile(p *profile) *expectedSet {
	if p == quickProfile {
		return f.Quick
	}
	return f.Full
}

// check compares got with the value pinned under key, or records it when
// pinning. A missing pin is a failure: an unpinned result is unchecked.
func check[T comparable](e *expectedSet, o *outcome, table map[string]T, what, key string, got T) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pinning {
		table[key] = got
		return
	}
	want, ok := table[key]
	switch {
	case !ok:
		o.fail("%s %s: no pinned value (got %v)", what, key, got)
	case want != got:
		o.fail("%s %s: got %v, pinned %v", what, key, got, want)
	}
}

func (e *expectedSet) checkServe(o *outcome, cycles int64, digest string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pinning {
		e.ServeCycles, e.ServeDigest = cycles, digest
		return
	}
	if cycles != e.ServeCycles || digest != e.ServeDigest {
		o.fail("serve report: got %d cycles digest %.12s, pinned %d cycles digest %.12s", cycles, digest, e.ServeCycles, e.ServeDigest)
	}
}

// pinAll runs every workload of both profiles once and rewrites
// expected.json with what they produced.
func pinAll() error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	out := &expectedFile{}
	for _, p := range []*profile{fullProfile, quickProfile} {
		set := newExpectedSet(true)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "bench: pinning %s (%s)\n", w.Name, p.name)
			rc := &runCtx{name: w.Name, seed: 1, seconds: 0, prof: p, want: set}
			o, err := w.run(rc)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if o.failed > 0 {
				return fmt.Errorf("%s: %v", w.Name, o.problems)
			}
		}
		if p == fullProfile {
			out.Full = set
		} else {
			out.Quick = set
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "expected.json"), append(data, '\n'), 0o644)
}
