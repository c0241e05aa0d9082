package fleet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/golden"
	"repro/internal/obs/metrics/promtest"
	"repro/internal/service"
)

// The coordinator's /metrics shape is pinned by a golden file: families,
// types, labels, and histogram bounds, with run-dependent values stripped.
// A renamed family or dropped label breaks the golden; a different cycle
// count does not. The coordinator is built over fixed member names and not
// started, so the exposition is fully deterministic (two tenants queued,
// no health snapshots yet).
func TestFleetExpositionGolden(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Members: []Member{
			{Name: "m0", URL: "http://127.0.0.1:1"},
			{Name: "m1", URL: "http://127.0.0.1:2"},
			{Name: "m2", URL: "http://127.0.0.1:3"},
		},
		QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for _, tenant := range []string{"a", "b", "b"} {
		if _, err := coord.Submit(service.JobSpec{Model: "gemm", N: 32, NPU: "small", Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if _, err := coord.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams := promtest.Parse(t, bytes.NewReader(buf.Bytes()))
	promtest.CheckFamilies(t, fams)
	got := []byte(promtest.Strip(fams))

	golden.Check(t, "testdata/golden/coordinator_metrics.golden", got)
}

// After a live fleet ran jobs, the merged families must reflect the member
// snapshots: cycles summed over members match the coordinator's own done
// count, per-tenant queue depth family appears while queued, and every
// family passes the structural checks.
func TestFleetMetricsLive(t *testing.T) {
	fl, err := StartLocal(LocalOptions{N: 3, Workers: 1, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	ids := []string{}
	for i := 0; i < 4; i++ {
		j, err := fl.Coord.Submit(service.JobSpec{Model: "gemm", N: 32 + 8*i, NPU: "small", Tenant: "t"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	var cycles int64
	for _, id := range ids {
		fin, err := fl.Coord.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != service.StateDone {
			t.Fatalf("job failed: %s", fin.Error)
		}
		cycles += fin.Result.Cycles
	}

	// Wait for a health sweep so the merged member snapshots include every
	// finished job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := fl.Coord.Stats()
		if st.Fleet.JobsDone == int64(len(ids)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("merged member stats never caught up: %+v", st.Fleet)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var buf bytes.Buffer
	if _, err := fl.Coord.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams := promtest.Parse(t, strings.NewReader(buf.String()))
	promtest.CheckFamilies(t, fams)

	if v := fams["ptsimfleet_jobs_done_total"].Samples[0].Value; v != float64(len(ids)) {
		t.Fatalf("ptsimfleet_jobs_done_total = %g, want %d", v, len(ids))
	}
	if v := fams["ptsimfleet_fleet_cycles_total"].Samples[0].Value; v != float64(cycles) {
		t.Fatalf("merged cycles = %g, want %d", v, cycles)
	}
	upFam := fams["ptsimfleet_member_up"]
	if upFam == nil || len(upFam.Samples) != 3 {
		t.Fatalf("member_up family: %+v", upFam)
	}
	for _, s := range upFam.Samples {
		if s.Value != 1 {
			t.Fatalf("member %s not up: %+v", s.Labels["member"], s)
		}
	}
	if fams["ptsimfleet_tenant_jobs_done_total"] == nil {
		t.Fatal("tenant done family missing after tenant jobs")
	}
}
