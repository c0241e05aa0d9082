package service

import (
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

var metricsSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+Inf|-?[0-9.eE+-]+)$`)

// TestMetricsEndpoint drives real jobs through the service and checks the
// /metrics surface: correct content type, parseable exposition, the
// job-latency histogram populated with one observation per job, and
// counter values that agree exactly with /stats (both render the same
// one-lock snapshot).
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 8})
	svc.Start()
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	const n = 3
	for i := 0; i < n; i++ {
		j, err := svc.Submit(JobSpec{Model: "gemm", N: 64, NPU: "small"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(j.ID); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var buf strings.Builder
	if _, err := svc.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	st := svc.Stats()
	for _, want := range []string{
		fmt.Sprintf("ptsimd_jobs_submitted_total %d", st.Submitted),
		fmt.Sprintf("ptsimd_jobs_done_total %d", st.Done),
		"ptsimd_jobs_failed_total 0",
		fmt.Sprintf("ptsimd_compile_cache_hits_total %d", st.CacheHits),
		fmt.Sprintf("ptsimd_compile_cache_misses_total %d", st.CacheMisses),
		"ptsimd_compile_cache_evictions_total 0",
		fmt.Sprintf("ptsimd_result_cache_hits_total %d", n-1),
		"ptsimd_result_cache_misses_total 1",
		"ptsimd_result_cache_evictions_total 0",
		fmt.Sprintf("ptsimd_simulated_cycles_total %d", st.TotalCycles),
		"ptsimd_jobs_queued 0",
		"ptsimd_jobs_running 0",
		fmt.Sprintf("ptsimd_workers %d", st.Workers),
		fmt.Sprintf("ptsimd_queue_capacity %d", st.QueueDepth),
		"# TYPE ptsimd_queue_wait_seconds histogram",
		"# TYPE ptsimd_job_duration_seconds histogram",
		fmt.Sprintf(`ptsimd_job_duration_seconds_bucket{le="+Inf"} %d`, n),
		fmt.Sprintf("ptsimd_job_duration_seconds_count %d", n),
		fmt.Sprintf("ptsimd_queue_wait_seconds_count %d", n),
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !metricsSample.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}
}

// TestJobResponseIncludesReport: a finished job's result carries the
// derived report, and its header matches the raw cycle count.
func TestJobResponseIncludesReport(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4})
	svc.Start()
	defer svc.Close()
	j, err := svc.Submit(JobSpec{Model: "gemm", N: 64, NPU: "small"})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := svc.Wait(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job failed: %s", fin.Error)
	}
	rep := fin.Result.Report
	if rep == nil {
		t.Fatal("result has no report")
	}
	if rep.Cycles != fin.Result.Cycles {
		t.Fatalf("report cycles %d != result cycles %d", rep.Cycles, fin.Result.Cycles)
	}
	if len(rep.Cores) == 0 || len(rep.Jobs) == 0 || rep.Mem == nil {
		t.Fatalf("report incomplete: %+v", rep)
	}
	if rep.Jobs[0].ComputeCycles <= 0 {
		t.Fatalf("GEMM job must show compute cycles: %+v", rep.Jobs[0])
	}
	if rep.Mem.BandwidthUtil <= 0 || rep.Mem.BandwidthUtil > 1 {
		t.Fatalf("bandwidth utilization out of range: %+v", rep.Mem)
	}
}
