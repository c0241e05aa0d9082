package main

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/service"
)

// TestLLMTable pins the LLM table in testdata/golden/llm.txt and checks
// that it simulates each distinct spec once: twelve sweep iterations, four
// multi-package points and the one serving run miss the result cache, the
// single-package point hits the batch-1 ctx-128 decode step, and the
// serving run completes its eight requests.
func TestLLMTable(t *testing.T) {
	svc := service.New(service.Config{})
	res, err := llm(svc)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "../../testdata/golden/llm.txt", []byte(res))
	st := svc.Stats()
	if st.ResultMisses != 17 || st.ResultHits != 1 || st.ServeRequests != 8 {
		t.Fatalf("want 17 result misses, 1 hit and one 8-request serving run; got %d misses, %d hits, %d serving requests",
			st.ResultMisses, st.ResultHits, st.ServeRequests)
	}
}
