package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// testSpecs is a small mixed batch: distinct gemm shapes (distinct compile
// keys) across tenants and priorities, with deliberate duplicates so
// routing locality is observable.
func testSpecs() []service.JobSpec {
	specs := []service.JobSpec{
		{Model: "gemm", N: 32, NPU: "small", Tenant: "a"},
		{Model: "gemm", N: 48, NPU: "small", Tenant: "b", Priority: 1},
		{Model: "gemm", N: 64, NPU: "small", Tenant: "a"},
		{Model: "mlp", Batch: 2, NPU: "small", Tenant: "b"},
		{Model: "gemm", N: 32, NPU: "small", Tenant: "b"}, // dup of [0]
		{Model: "gemm", N: 64, NPU: "small", Tenant: "a"}, // dup of [2]
	}
	return specs
}

// A 3-member fleet returns bit-identical canonical results to one
// single-node service for the same specs, and duplicate specs route to the
// same member.
func TestFleetMatchesSingleNode(t *testing.T) {
	single := service.New(service.Config{Workers: 2})
	single.Start()
	defer single.Close()

	fl, err := StartLocal(LocalOptions{N: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	specs := testSpecs()
	want := make([]service.JobResult, len(specs))
	for i, spec := range specs {
		j, err := single.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := single.Wait(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != service.StateDone {
			t.Fatalf("single-node job %d failed: %s", i, fin.Error)
		}
		want[i] = fin.Result.Canonical()
	}

	ids := make([]string, len(specs))
	for i, spec := range specs {
		j, err := fl.Coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	memberOf := map[string]string{}
	for i, id := range ids {
		fin, err := fl.Coord.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != service.StateDone {
			t.Fatalf("fleet job %d failed: %s", i, fin.Error)
		}
		got := fin.Result.Canonical()
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("job %d: fleet result differs from single node:\nfleet:  %+v\nsingle: %+v", i, got, want[i])
		}
		if prev, ok := memberOf[fin.Key]; ok && prev != fin.Member {
			t.Errorf("key %s routed to both %s and %s", fin.Key, prev, fin.Member)
		}
		memberOf[fin.Key] = fin.Member
	}

	st := fl.Coord.Stats()
	if st.Done != int64(len(specs)) || st.Failed != 0 || st.DuplicateCompletions != 0 {
		t.Fatalf("coordinator stats: %+v", st)
	}
	if st.TenantDone["a"] != 3 || st.TenantDone["b"] != 3 {
		t.Fatalf("tenant done split: %+v", st.TenantDone)
	}
}

// An invalid spec is rejected at the coordinator's door, before any
// dispatch.
func TestCoordinatorValidates(t *testing.T) {
	fl, err := StartLocal(LocalOptions{N: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if _, err := fl.Coord.Submit(service.JobSpec{Model: "no-such-model"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if st := fl.Coord.Stats(); st.Submitted != 0 {
		t.Fatalf("invalid spec counted as submitted: %+v", st)
	}
}

// The coordinator HTTP API: submit + poll matches the in-process result,
// tenant overload returns a typed 429, /members and /metrics respond.
func TestFleetHTTPAPI(t *testing.T) {
	fl, err := StartLocal(LocalOptions{N: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ts := httptest.NewServer(NewHandler(fl.Coord))
	defer ts.Close()

	body, _ := json.Marshal(service.JobSpec{Model: "gemm", N: 32, NPU: "small", Tenant: "t"})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || j.ID == "" {
		t.Fatalf("POST /jobs: %d %+v", resp.StatusCode, j)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		get, err := http.Get(ts.URL + "/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(get.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		get.Body.Close()
		if j.State == service.StateDone || j.State == service.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if j.State != service.StateDone || j.Result == nil || j.Result.Cycles <= 0 || j.Member == "" {
		t.Fatalf("fleet job via HTTP: %+v", j)
	}

	var members []MemberStats
	mresp, err := http.Get(ts.URL + "/members")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(mresp.Body).Decode(&members); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(members) != 2 {
		t.Fatalf("/members: %+v", members)
	}

	met, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer met.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(met.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("ptsimfleet_jobs_done_total")) {
		t.Fatalf("/metrics missing fleet families:\n%s", buf.String())
	}
}

// Per-tenant admission bounds at the coordinator: a tenant that floods the
// queue gets typed TenantOverloadErrors (HTTP 429) while other tenants
// still get in.
func TestCoordinatorTenantOverload(t *testing.T) {
	// No dispatchers pull (Start not called), so pushes accumulate.
	coord, err := NewCoordinator(Config{
		Members:          []Member{{Name: "m0", URL: "http://127.0.0.1:1"}},
		QueueDepth:       8,
		TenantQueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := service.JobSpec{Model: "gemm", N: 32, NPU: "small", Tenant: "noisy"}
	for i := 0; i < 2; i++ {
		if _, err := coord.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	_, err = coord.Submit(spec)
	tover, ok := err.(*service.TenantOverloadError)
	if !ok || tover.Tenant != "noisy" {
		t.Fatalf("third submit: %v, want TenantOverloadError for noisy", err)
	}
	other := spec
	other.Tenant = "quiet"
	if _, err := coord.Submit(other); err != nil {
		t.Fatalf("other tenant blocked: %v", err)
	}
	st := coord.Stats()
	if st.TenantQueued["noisy"] != 2 || st.TenantQueued["quiet"] != 1 {
		t.Fatalf("tenant queue depths: %+v", st.TenantQueued)
	}
	coord.Close()
}

// The second identical job submitted to a *different* member compiles with
// zero kernel measurements: the kernel latencies arrive through the peer
// cache tier, not recomputation.
func TestPeerCacheBackfill(t *testing.T) {
	fl, err := StartLocal(LocalOptions{N: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	spec := service.JobSpec{Model: "gemm", N: 56, NPU: "small"}
	key, err := service.ContentKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	owner := fl.OwnerIndex(key)
	if owner < 0 {
		t.Fatalf("no owner for %s", key)
	}

	// Run the job once through the fleet: it lands on the owner, compiles,
	// and pushes each kernel latency to that entry's own ring owner.
	j, err := fl.Coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := fl.Coord.Wait(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateDone {
		t.Fatalf("warmup job failed: %s", fin.Error)
	}
	if fin.Member != fl.MemberName(owner) {
		t.Fatalf("job routed to %s, ring owner is %s", fin.Member, fl.MemberName(owner))
	}
	warm := fl.Service(owner).Stats()
	if warm.KernelsMeasured == 0 {
		t.Fatalf("owner compiled without measuring kernels: %+v", warm)
	}

	// Submit the identical spec directly to a different member, bypassing
	// the coordinator: its compile must be fed entirely by the fleet.
	other := (owner + 1) % fl.N()
	cold := fl.Service(other)
	before := cold.Stats()
	if before.KernelsMeasured != 0 {
		t.Fatalf("member %d measured kernels before its first job: %+v", other, before)
	}
	j2, err := cold.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := cold.Wait(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.State != service.StateDone {
		t.Fatalf("direct job failed: %s", fin2.Error)
	}
	after := cold.Stats()
	if after.KernelsMeasured != 0 {
		t.Fatalf("cold member re-measured %d kernels; want 0 (peer backfill): %+v",
			after.KernelsMeasured, after)
	}
	if after.DiskHits == 0 {
		t.Fatalf("cold member compiled without any store hit: %+v", after)
	}
	// And the results agree bit-for-bit.
	if err := compareCanonical(fin.Result, fin2.Result); err != nil {
		t.Fatal(err)
	}
}

// Two members compile different models for the same core at the same
// time. Each measured kernel is its own store entry, so neither build hides
// the other's kernels: afterwards every other member compiles each model
// without measuring anything.
func TestPeerCacheConcurrentModels(t *testing.T) {
	fl, err := StartLocal(LocalOptions{N: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	specs := []service.JobSpec{
		{Model: "gemm", N: 64, NPU: "small"},
		{Model: "mlp", Batch: 2, NPU: "small"},
	}
	// Member i builds specs[i]; both are submitted before either is awaited.
	ids := make([]string, len(specs))
	for i, spec := range specs {
		j, err := fl.Service(i).Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	want := make([]*service.JobResult, len(specs))
	for i := range specs {
		fin, err := fl.Service(i).Wait(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != service.StateDone {
			t.Fatalf("warmup job %d failed: %s", i, fin.Error)
		}
		if fl.Service(i).Stats().KernelsMeasured == 0 {
			t.Fatalf("member %d compiled %s without measuring kernels", i, specs[i].Model)
		}
		want[i] = fin.Result
	}

	for i, spec := range specs {
		for m := 0; m < fl.N(); m++ {
			if m == i {
				continue
			}
			svc := fl.Service(m)
			before := svc.Stats().KernelsMeasured
			j, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin, err := svc.Wait(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if fin.State != service.StateDone {
				t.Fatalf("member %d: %s failed: %s", m, spec.Model, fin.Error)
			}
			if after := svc.Stats().KernelsMeasured; after != before {
				t.Fatalf("member %d measured %d kernels of the warmed %s; the peer tier should have served them",
					m, after-before, spec.Model)
			}
			if err := compareCanonical(want[i], fin.Result); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func compareCanonical(a, b *service.JobResult) error {
	if a == nil || b == nil {
		return fmt.Errorf("nil result (a=%v b=%v)", a == nil, b == nil)
	}
	ca, cb := a.Canonical(), b.Canonical()
	if !reflect.DeepEqual(ca, cb) {
		return fmt.Errorf("results differ:\na: %+v\nb: %+v", ca, cb)
	}
	return nil
}

// A dispatch is one member request: per job the member sees exactly one
// POST /jobs?wait=1 and is never polled on GET /jobs/{id}, a result hit
// included.
func TestDispatchIsOneMemberRequest(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start()
	defer svc.Close()
	var mu sync.Mutex
	var waits, others int
	h := service.NewHandler(svc)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/jobs") {
			mu.Lock()
			if r.Method == http.MethodPost && r.URL.RawQuery == "wait=1" {
				waits++
			} else {
				others++
			}
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := NewCoordinator(Config{Members: []Member{{Name: "m0", URL: srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	specs := []service.JobSpec{
		{Model: "gemm", N: 32, NPU: "small"},
		{Model: "gemm", N: 48, NPU: "small"},
		{Model: "gemm", N: 32, NPU: "small"}, // a result hit on the member
	}
	for _, spec := range specs {
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := c.Wait(j.ID); err != nil || fin.State != service.StateDone {
			t.Fatalf("job %+v: %+v, %v", spec, fin, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if waits != len(specs) || others != 0 {
		t.Fatalf("member saw %d POST /jobs?wait=1 and %d other /jobs requests for %d jobs, want %d and 0",
			waits, others, len(specs), len(specs))
	}
}
