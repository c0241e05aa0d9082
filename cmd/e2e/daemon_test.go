package e2e

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/service"
)

// gemm64Spec is gemm64 as a job spec.
var gemm64Spec = service.JobSpec{Model: "gemm", N: 64, NPU: "small"}

// A ptsimd job and a direct ptsim run of the same spec report the same
// cycle count, and so does a repeat of the job, which the daemon serves
// from its result cache. The first job takes the 202-plus-poll path; the
// repeat runs in one POST /jobs?wait=1, whose 200 answer carries the same
// canonical result, and an invalid spec is still refused with 400 there.
func TestPtsimdMatchesPtsim(t *testing.T) {
	d := startDaemon(t, buildCmd(t, "cmd/ptsimd"), "-addr", "127.0.0.1:0", "-workers", "2", "-queue", "8")
	base := d.urls(t, "ptsimd: listening", 1)[0]
	var job service.Job
	waitDone(t, base, submit(t, base, gemm64Spec), &job)
	if job.Result == nil {
		t.Fatal("done job has no result")
	}
	cli := tlsCycles(t, mustRun(t, buildCmd(t, "cmd/ptsim"), gemm64...))
	if job.Result.Cycles != cli {
		t.Fatalf("service reported %d cycles, ptsim %d", job.Result.Cycles, cli)
	}
	var st service.Stats
	getJSON(t, base+"/stats", &st)
	if st.Done != 1 {
		t.Fatalf("/stats counts %d done jobs, want 1", st.Done)
	}

	var again service.Job
	runJob(t, base, gemm64Spec, &again)
	if again.Result == nil || !again.Result.ResultHit || again.Result.Cycles != cli {
		t.Fatalf("repeated job: %+v, want a result hit with ptsim's %d cycles", again.Result, cli)
	}
	if got, want := again.Result.Canonical(), job.Result.Canonical(); !reflect.DeepEqual(got, want) {
		t.Fatalf("?wait=1 result differs from the polled one:\nwait: %+v\npoll: %+v", got, want)
	}
	postSpec(t, base+"/jobs?wait=1", service.JobSpec{Model: "no-such-model"}, http.StatusBadRequest)
	getJSON(t, base+"/stats", &st)
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.TotalCycles != 2*cli {
		t.Fatalf("/stats after the repeat: result hits %d misses %d, %d cycles; want 1, 1, %d",
			st.ResultHits, st.ResultMisses, st.TotalCycles, 2*cli)
	}
}

// ptsimfleet boots three ptsimd members behind its coordinator. Jobs under
// distinct tenants finish with a direct ptsim run's cycles; a spec the
// fleet has warmed runs on every member without one new kernel
// measurement, because the members fetch its kernel latencies over the
// peer cache tier; and SIGTERM drains the whole fleet cleanly.
func TestPtsimfleetPeerCacheAndDrain(t *testing.T) {
	d := startDaemon(t, buildCmd(t, "cmd/ptsimfleet"), "-n", "3", "-addr", "127.0.0.1:0", "-workers", "2")
	coord := d.urls(t, "ptsimfleet: coordinator", 1)[0]
	members := d.urls(t, "ptsimfleet: member", 3)

	spec := gemm64Spec
	spec.Tenant = "team-a"
	idA := submit(t, coord, spec)
	idB := submit(t, coord, service.JobSpec{Model: "mlp", Batch: 2, NPU: "small", Tenant: "team-b"})
	var jobA, jobB fleet.Job
	waitDone(t, coord, idA, &jobA)
	waitDone(t, coord, idB, &jobB)
	if jobA.Result == nil {
		t.Fatal("done fleet job has no result")
	}
	cycles := jobA.Result.Cycles
	if cli := tlsCycles(t, mustRun(t, buildCmd(t, "cmd/ptsim"), gemm64...)); cycles != cli {
		t.Fatalf("fleet reported %d cycles, ptsim %d", cycles, cli)
	}

	// The fleet routed the GEMM to one member, which measured its kernels
	// and pushed each kernel's latency to that entry's hash owner. The
	// same spec submitted to each member directly must be measured
	// nowhere. The member that ran it serves it from its result cache;
	// the other two simulate it, so their cycles are a fresh check.
	before := make([]service.Stats, len(members))
	for i, m := range members {
		getJSON(t, m+"/stats", &before[i])
	}
	hits := 0
	for i, m := range members {
		var job service.Job
		waitDone(t, m, submit(t, m, spec), &job)
		if job.Result == nil || job.Result.Cycles != cycles {
			t.Fatalf("member %s reported %+v, want %d cycles", m, job.Result, cycles)
		}
		if job.Result.ResultHit {
			hits++
		}
		var after service.Stats
		getJSON(t, m+"/stats", &after)
		if after.KernelsMeasured != before[i].KernelsMeasured {
			t.Fatalf("member %s measured a warmed spec again (kernels_measured %d -> %d); the peer tier should have served it",
				m, before[i].KernelsMeasured, after.KernelsMeasured)
		}
	}
	if hits != 1 {
		t.Fatalf("%d members served the fleet's spec from their result cache, want only the one that ran it", hits)
	}

	var st fleet.Stats
	getJSON(t, coord+"/stats", &st)
	if st.TenantDone["team-a"] == 0 {
		t.Fatalf("tenant team-a missing from the fleet stats: %+v", st.TenantDone)
	}
	if st.DuplicateCompletions != 0 {
		t.Fatalf("%d duplicate completions", st.DuplicateCompletions)
	}
	if !hasLinePrefix(string(get(t, coord+"/metrics")), "ptsimfleet_jobs_done_total") {
		t.Fatal("no ptsimfleet_jobs_done_total in the fleet exposition")
	}

	out, err := d.stop(t)
	if err != nil {
		t.Fatalf("fleet exited with %v on SIGTERM", err)
	}
	if !strings.Contains(out, "draining") {
		t.Fatal("no draining line after SIGTERM")
	}
}

// hasLinePrefix reports whether a line of text starts with prefix.
func hasLinePrefix(text, prefix string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}
