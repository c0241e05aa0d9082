package service

import (
	"encoding/json"
	"testing"

	"repro/internal/golden"
)

// A serving trace with more distinct iteration shapes than the compile
// cache keeps artifacts still reports the compile hits of an unbounded
// cache: each shape is compiled once per run and every repeat counts as a
// hit, so no mid-run eviction can re-lower a shape and move PrefillHits or
// DecodeHits. The golden was generated before the artifact bound existed.
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
