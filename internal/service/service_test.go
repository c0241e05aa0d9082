package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/service/modelzoo"
)

// A batch of N identical submissions compiles and simulates exactly once
// (one compile miss, no compile hit: the N-1 repeats are result hits and
// never reach the compile cache), every job reports the same cycle count,
// and that count is bit-identical to a standalone run through the same
// path ptsim uses.
func TestServiceCompilesOnceAndMatchesStandalone(t *testing.T) {
	svc := New(Config{Workers: 4, QueueDepth: 16})
	svc.Start()
	defer svc.Close()

	const n = 6
	spec := JobSpec{Model: "gemm", N: 64, NPU: "small"}
	ids := make([]string, n)
	for i := range ids {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	var cycles []int64
	for _, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, j.State, j.Error)
		}
		cycles = append(cycles, j.Result.Cycles)
	}
	for i, c := range cycles {
		if c != cycles[0] {
			t.Fatalf("job %d: %d cycles, want %d", i, c, cycles[0])
		}
	}
	st := svc.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 0 || st.ResultMisses != 1 || st.ResultHits != n-1 {
		t.Fatalf("cache hits=%d misses=%d, result hits=%d misses=%d; want 0, 1, %d, 1",
			st.CacheHits, st.CacheMisses, st.ResultHits, st.ResultMisses, n-1)
	}
	if st.Done != n || st.Failed != 0 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats %+v: want %d done and nothing else", st, n)
	}
	if st.TotalCycles != int64(n)*cycles[0] {
		t.Fatalf("TotalCycles=%d, want %d", st.TotalCycles, int64(n)*cycles[0])
	}

	// Standalone: exactly what cmd/ptsim -model gemm -n 64 -small does.
	cfg, _ := modelzoo.NPUConfig("small")
	g, err := modelzoo.BuildGraph(modelzoo.Spec{Model: "gemm", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator(cfg, compiler.DefaultOptions())
	comp, err := sim.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.SimulateTLS(comp, core.SimpleNet)
	if err != nil {
		t.Fatal(err)
	}
	if cycles[0] != rep.Cycles {
		t.Fatalf("service reported %d cycles, standalone %d — must be bit-identical", cycles[0], rep.Cycles)
	}
}

// Submissions beyond queue capacity fail fast with the typed overload
// error — never by blocking. Workers are not started, so the queue cannot
// drain under us.
func TestServiceOverload(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 2})
	// No Start(): the queue fills deterministically.
	spec := JobSpec{Model: "gemm", N: 64, NPU: "small"}
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	_, err := svc.Submit(spec)
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("third submission: got %v, want *OverloadError", err)
	}
	if over.Capacity != 2 {
		t.Fatalf("overload capacity %d, want 2", over.Capacity)
	}
	// Draining the queue restores admission.
	svc.Start()
	st, err := svc.Submit(spec)
	if err == nil {
		if _, err := svc.Wait(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
}

func TestSubmitValidation(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 2})
	for _, spec := range []JobSpec{
		{Model: "no-such-model"},
		{Model: "gemm", NPU: "no-such-npu"},
		{Model: "gemm", Net: "no-such-net"},
		{Model: "gemm", DMA: "no-such-dma"},
	} {
		if _, err := svc.Submit(spec); err == nil {
			t.Errorf("spec %+v: accepted, want validation error", spec)
		}
	}
	if st := svc.Stats(); st.Queued != 0 {
		t.Fatalf("invalid specs consumed queue slots: %+v", st)
	}
}

// The HTTP layer: submit, poll to done, stats; 429 on overload, 400 on
// invalid specs, 404 on unknown ids.
func TestHTTPAPI(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 8})
	svc.Start()
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}

	resp, m := post(`{"model":"gemm","n":64,"npu":"small"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d, want 202 (%v)", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", m)
	}
	if _, err := svc.Wait(id); err != nil {
		t.Fatal(err)
	}
	get, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(get.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if job.State != StateDone || job.Result == nil || job.Result.Cycles <= 0 {
		t.Fatalf("GET /jobs/%s: %+v", id, job)
	}

	// Specs from older clients may carry the removed engine_workers field:
	// the decoder ignores it and the job simulates the same cycles.
	resp, m = post(`{"model":"gemm","n":64,"npu":"small","engine_workers":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs with engine_workers: %d, want 202 (%v)", resp.StatusCode, m)
	}
	old, err := svc.Wait(m["id"].(string))
	if err != nil {
		t.Fatal(err)
	}
	if old.State != StateDone || old.Result.Cycles != job.Result.Cycles {
		t.Fatalf("spec with engine_workers: state %s, %+v; want %d cycles", old.State, old.Result, job.Result.Cycles)
	}

	if resp, _ := post(`{"model":"no-such-model"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid model: %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{broken json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON: %d, want 400", resp.StatusCode)
	}
	if get, _ := http.Get(ts.URL + "/jobs/job-999"); get.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", get.StatusCode)
	}
	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if st.Done < 1 || st.TotalCycles <= 0 {
		t.Fatalf("GET /stats: %+v", st)
	}
}

// A full queue surfaces as HTTP 429 through the daemon API.
func TestHTTPOverload(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	// Workers not started: the one queue slot fills and stays full.
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	body := `{"model":"gemm","n":64,"npu":"small"}`
	first, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST: %d, want 202", first.StatusCode)
	}
	second, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST: %d, want 429", second.StatusCode)
	}
	svc.Start()
	svc.Close()
}

// BenchmarkServiceWorkers compares serial (1 worker) against parallel
// simulation of the same distinct-job sweep — ≥2 workers beat serial
// wherever the host grants more than one hardware thread (on a 1-CPU
// container the lines coincide; the engines still interleave race-free).
// The cache is pre-warmed so the benchmark isolates simulation throughput.
func BenchmarkServiceWorkers(b *testing.B) {
	specs := make([]JobSpec, 8)
	for i := range specs {
		// N ≤ 80: larger tiles exceed the small config's scratchpad.
		specs[i] = JobSpec{Model: "gemm", N: 24 + 8*i, NPU: "small"}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			svc := New(Config{Workers: workers, QueueDepth: len(specs) * (b.N + 1)})
			svc.Start()
			defer svc.Close()
			warm := make([]string, len(specs))
			for i, s := range specs {
				j, err := svc.Submit(s)
				if err != nil {
					b.Fatal(err)
				}
				warm[i] = j.ID
			}
			for _, id := range warm {
				if j, err := svc.Wait(id); err != nil || j.State != StateDone {
					b.Fatalf("warmup %s: %v %+v", id, err, j)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]string, len(specs))
				for k, s := range specs {
					j, err := svc.Submit(s)
					if err != nil {
						b.Fatal(err)
					}
					ids[k] = j.ID
				}
				for _, id := range ids {
					if _, err := svc.Wait(id); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestServiceEngineKnobs: a job hitting its max_cycles guard must fail
// with error_kind "deadlock" and the full stuck-job diagnostic in the
// error body.
func TestServiceEngineKnobs(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16})
	svc.Start()
	defer svc.Close()

	// max_cycles=3 is guaranteed to trip the deadlock guard.
	j, err := svc.Submit(JobSpec{Model: "gemm", N: 64, NPU: "small", MaxCycles: 3})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := svc.Wait(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dead.State != StateFailed {
		t.Fatalf("max_cycles=3 job did not fail: state %s", dead.State)
	}
	if dead.ErrorKind != "deadlock" {
		t.Fatalf("error_kind = %q, want \"deadlock\" (error: %q)", dead.ErrorKind, dead.Error)
	}
	if !strings.Contains(dead.Error, "exceeded max cycles") {
		t.Fatalf("deadlock diagnostic missing from error body: %q", dead.Error)
	}
}

// A serving job runs the continuous-batching loop through the shared
// compile cache and reports serving metrics: replayed decode steps at a
// settled shape must all be cache hits, and the serve counters accumulate.
func TestServiceServeJob(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4})
	svc.Start()
	defer svc.Close()

	j, err := svc.Submit(JobSpec{Model: "decoder-tiny", NPU: "small",
		Serve: &ServeSpec{Requests: 2, Prompt: 4, Output: 4, MaxBatch: 2, KVBlock: 16, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := svc.Wait(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("serve job failed: %s %q", fin.State, fin.Error)
	}
	rep := fin.Result.ServeReport
	if rep == nil {
		t.Fatal("serve job has no ServeReport")
	}
	if rep.Requests != 2 || rep.TokensOut != 8 {
		t.Fatalf("requests %d tokens %d", rep.Requests, rep.TokensOut)
	}
	if rep.TokensPerSec <= 0 || rep.TTFTp50Ms <= 0 {
		t.Fatalf("degenerate serving report: %+v", rep)
	}
	// Every decode step past the first at a given shape is a hit: a repeat
	// inside the run.
	if want := rep.DecodeSteps - int64(rep.DecodeShapes); rep.DecodeHits != want {
		t.Fatalf("decode hits %d, want %d (%d steps over %d shapes)",
			rep.DecodeHits, want, rep.DecodeSteps, rep.DecodeShapes)
	}
	st := svc.Stats()
	if st.ServeRequests != 2 || st.ServeTokens != 8 {
		t.Fatalf("serve stats %d/%d, want 2/8", st.ServeRequests, st.ServeTokens)
	}

	// Serve jobs are decoder-only; anything else is rejected at admission.
	if _, err := svc.Submit(JobSpec{Model: "gemm", Serve: &ServeSpec{}}); err == nil {
		t.Fatal("serve job on a non-decoder model must be rejected")
	}
}

// ptserve is Simulate on a serve spec; the daemon is Submit + Wait on the
// same spec. Both must compute the same report, machine name included.
func TestServeSimulateMatchesQueuedJob(t *testing.T) {
	spec := JobSpec{Model: "decoder-tiny", NPU: "small",
		Serve: &ServeSpec{Requests: 3, Prompt: 8, Output: 4, MaxBatch: 2, KVBlock: 16, RatePerSec: 200000}}

	direct, err := New(Config{}).Simulate(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1})
	svc.Start()
	defer svc.Close()
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := svc.Wait(j.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("queued serve job: %v %s %q", err, fin.State, fin.Error)
	}
	if direct.ServeReport.NPU != "small" {
		t.Fatalf("ServeReport.NPU = %q, want small", direct.ServeReport.NPU)
	}
	if a, b := direct.Canonical(), fin.Result.Canonical(); !reflect.DeepEqual(a, b) {
		t.Fatalf("Simulate and Submit+Wait disagree:\n%+v\n%+v", *a.ServeReport, *b.ServeReport)
	}
}
