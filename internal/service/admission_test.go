package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// holdSpec is the spec heldService's engine run blocks on.
var holdSpec = JobSpec{Model: "gemm", N: 96, NPU: "small"}

// heldService starts a one-worker service whose engine run blocks on
// holdSpec until release is called; every other spec simulates. The test's
// cleanup releases the worker before it closes the service.
func heldService(t *testing.T, queueDepth int) (svc *Service, release func()) {
	t.Helper()
	svc = New(Config{Workers: 1, QueueDepth: queueDepth})
	held := make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	run := svc.engineRun
	svc.engineRun = func(r Resolved, probe obs.Probe) (JobResult, error) {
		if r.Spec.N == holdSpec.N {
			<-held
		}
		return run(r, probe)
	}
	svc.Start()
	t.Cleanup(svc.Close)
	t.Cleanup(release) // cleanups run last-registered first
	return svc, release
}

// submitAndWait runs spec to its end and fails unless it is done.
func submitAndWait(t *testing.T, svc *Service, spec JobSpec) Job {
	t.Helper()
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := svc.Wait(j.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("%+v: %v %s %q", spec, err, fin.State, fin.Error)
	}
	return fin
}

// occupy blocks the worker on holdSpec and waits until it runs.
func occupy(t *testing.T, svc *Service) Job {
	t.Helper()
	held, err := svc.Submit(holdSpec)
	if err != nil {
		t.Fatal(err)
	}
	for svc.Stats().Running != 1 {
		time.Sleep(time.Millisecond)
	}
	return held
}

// A spec the result cache holds is answered at admission: with the only
// worker busy and the queue full, Submit returns the job done, its result
// the cached run's, and the queue still refuses a new spec because the hit
// took no slot.
func TestSubmitAnswersResultHitAtAdmission(t *testing.T) {
	svc, release := heldService(t, 1)
	spec := JobSpec{Model: "gemm", N: 64, NPU: "small"}
	first := submitAndWait(t, svc, spec)
	held := occupy(t, svc)
	queued, err := svc.Submit(JobSpec{Model: "gemm", N: 72, NPU: "small"})
	if err != nil || queued.State != StateQueued {
		t.Fatalf("filling the queue: %+v %v", queued, err)
	}
	before := svc.Stats()

	spec.Tenant = "other" // tenants share results
	hit, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("cached spec with the worker busy and the queue full: %v", err)
	}
	if hit.State != StateDone || hit.Result == nil || !hit.Result.ResultHit || hit.Result.WallMs != 0 {
		t.Fatalf("cached spec: %+v, want done at admission with a result hit", hit)
	}
	if !reflect.DeepEqual(hit.Result.Canonical(), first.Result.Canonical()) {
		t.Fatalf("hit differs from the run:\n%+v\n%+v", hit.Result.Canonical(), first.Result.Canonical())
	}
	if !hit.Submitted.Equal(hit.Started) || !hit.Started.Equal(hit.Finished) {
		t.Fatalf("times %v %v %v, want Submitted = Started = Finished", hit.Submitted, hit.Started, hit.Finished)
	}
	if fin, err := svc.Wait(hit.ID); err != nil || !reflect.DeepEqual(fin, hit) {
		t.Fatalf("Wait: %+v %v, want the admission snapshot", fin, err)
	}
	after := svc.Stats()
	if after.ResultHits != before.ResultHits+1 || after.Done != before.Done+1 ||
		after.Submitted != before.Submitted+1 || after.Queued != 1 || after.Running != 1 ||
		after.TotalCycles != before.TotalCycles+first.Result.Cycles || after.TenantDone["other"] != 1 {
		t.Fatalf("stats before %+v\nafter %+v", before, after)
	}
	var over *OverloadError
	if _, err := svc.Submit(JobSpec{Model: "gemm", N: 80, NPU: "small"}); !errors.As(err, &over) {
		t.Fatalf("a new spec with the queue full: %v, want *OverloadError", err)
	}

	release()
	for _, id := range []string{held.ID, queued.ID} {
		if fin, err := svc.Wait(id); err != nil || fin.State != StateDone {
			t.Fatalf("job %s: %v %+v", id, err, fin)
		}
	}
}

// A spec still in flight is not a hit yet: it queues, and its worker joins
// the running flight instead of simulating again.
func TestSubmitQueuesAnInFlightSpec(t *testing.T) {
	svc, release := heldService(t, 2)
	runs := countRuns(svc)
	held := occupy(t, svc)
	again, err := svc.Submit(holdSpec)
	if err != nil || again.State != StateQueued {
		t.Fatalf("in-flight spec: %+v %v, want queued", again, err)
	}
	release()
	for _, id := range []string{held.ID, again.ID} {
		if fin, err := svc.Wait(id); err != nil || fin.State != StateDone {
			t.Fatalf("job %s: %v %+v", id, err, fin)
		}
	}
	if st := svc.Stats(); runs.Load() != 1 || st.ResultHits != 1 || st.ResultMisses != 1 {
		t.Fatalf("%d simulations, result hits %d misses %d; want 1, 1, 1", runs.Load(), st.ResultHits, st.ResultMisses)
	}
}

// Over HTTP a cached spec comes back from POST /jobs already done, with
// its result: GET /jobs/{id} returns the same snapshot and the event
// stream is the single terminal frame.
func TestHTTPResultHitIsDoneAtAdmission(t *testing.T) {
	svc, _ := heldService(t, 1)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	spec := JobSpec{Model: "gemm", N: 64, NPU: "small"}
	first := submitAndWait(t, svc, spec)
	occupy(t, svc)

	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var posted Job
	err = json.NewDecoder(resp.Body).Decode(&posted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %v", resp.StatusCode, err)
	}
	if posted.State != StateDone || posted.Result == nil || !posted.Result.ResultHit ||
		posted.Result.Cycles != first.Result.Cycles {
		t.Fatalf("POST /jobs of a cached spec: %+v, want done with the cached result", posted)
	}

	resp, err = http.Get(srv.URL + "/jobs/" + posted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || !reflect.DeepEqual(got, posted) {
		t.Fatalf("GET /jobs/%s: %+v %v, want the POST snapshot %+v", posted.ID, got, err, posted)
	}

	resp, err = http.Get(srv.URL + "/jobs/" + posted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	if len(evs) != 1 || evs[0].State != StateDone || evs[0].Cycles != first.Result.Cycles {
		t.Fatalf("event stream of a job done at admission: %+v", evs)
	}
}

// Admission resolves and hashes every spec, whatever JSON it came from: it
// must never panic, and it admits exactly the specs that resolve. The
// service is not started, so nothing is cached and an accepted spec
// queues.
func FuzzSubmitSpec(f *testing.F) {
	for _, seed := range []string{
		// The benchmark's job pool and its never-seen shapes.
		`{"model":"gemm","n":128}`,
		`{"model":"gemm","n":256,"net":"cn"}`,
		`{"model":"gemm","n":72,"npu":"small"}`,
		`{"model":"mlp","batch":32}`,
		`{"model":"decoder-small","batch":4,"ctx":256}`,
		`{"model":"decoder-small","batch":1,"ctx":64,"topology":"pkg2","parallel":"tensor"}`,
		// The end-to-end tests' specs.
		`{"model":"gemm","n":64,"npu":"small"}`,
		`{"model":"mlp","batch":2,"npu":"small","tenant":"team-b","priority":1}`,
		`{"model":"no-such-model"}`,
		`{"model":"decoder-tiny","npu":"small","serve":{"requests":2,"prompt":8,"output":3,"max_batch":2,"kv_block":16,"seed":1,"ctx_dist":"uniform:8,32"}}`,
		`{"model":"decoder-tiny","ctx":8,"npu":"small","topology":"mesh2x2","parallel":"data","dma":"fine","fusion":false,"convopt":false,"max_mt":32,"max_cycles":100}`,
		// A mesh whose package count overflows int.
		`{"model":"gemm","n":64,"topology":"mesh4294967296x4294967296"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		_, resolveErr := spec.Resolve()
		j, err := New(Config{Workers: 1, QueueDepth: 1}).Submit(spec)
		if (err == nil) != (resolveErr == nil) {
			t.Fatalf("%s: Submit error %v, Resolve error %v", data, err, resolveErr)
		}
		if err == nil && j.State != StateQueued {
			t.Fatalf("%s: admitted as %s on an empty service", data, j.State)
		}
	})
}
