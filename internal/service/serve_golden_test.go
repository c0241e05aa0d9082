package service

import (
	"encoding/json"
	"testing"

	"repro/internal/golden"
)

// A serving trace with more distinct iteration shapes than the compile
// cache keeps artifacts reports what an unbounded cache would. This holds
// by construction: a run keeps each shape's artifact and counts a hit as
// a repeat inside the run (runs − shapes), so neither eviction nor what
// the cache held before moves PrefillHits or DecodeHits. The golden was
// generated before the artifact bound existed.
func TestServeReportIndependentOfArtifactBound(t *testing.T) {
	if testing.Short() {
		t.Skip("48-request serving trace")
	}
	spec := JobSpec{Model: "decoder-tiny", NPU: "small",
		Serve: &ServeSpec{Requests: 48, RatePerSec: 200000, Seed: 5, Prompt: 16, Output: 4,
			MaxBatch: 4, KVBlock: 16, CtxDist: "uniform:8,200"}}
	res, err := New(Config{}).Simulate(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res.Canonical().ServeReport, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden.Check(t, "testdata/serve_uniform_report.json", got)
}
