package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// frontEnd is what the job-lifecycle contract needs of a ptsimd service
// or a fleet coordinator: both run the same service.Board, so both must
// pass the same checks.
type frontEnd struct {
	prefix string // job ID prefix
	submit func(service.JobSpec) (string, error)
	get    func(id string) (service.State, any, bool)
	wait   func(id string) (service.State, any, error)
	// counts is Stats' submitted, queued, running, done and failed.
	counts       func() [5]int64
	start, close func()
}

func serviceFrontEnd(t *testing.T, queueDepth, tenantQueueDepth int) frontEnd {
	s := service.New(service.Config{Workers: 2, QueueDepth: queueDepth, TenantQueueDepth: tenantQueueDepth})
	t.Cleanup(s.Close)
	return frontEnd{
		prefix: "job-",
		submit: func(spec service.JobSpec) (string, error) { j, err := s.Submit(spec); return j.ID, err },
		get:    func(id string) (service.State, any, bool) { j, ok := s.Get(id); return j.State, j, ok },
		wait:   func(id string) (service.State, any, error) { j, err := s.Wait(id); return j.State, j, err },
		counts: func() [5]int64 {
			st := s.Stats()
			return [5]int64{st.Submitted, st.Queued, st.Running, st.Done, st.Failed}
		},
		start: s.Start, close: s.Close,
	}
}

// coordinatorFrontEnd puts an unstarted coordinator in front of a
// 3-member local fleet, so admission can be checked before any dispatcher
// pulls from its queue.
func coordinatorFrontEnd(t *testing.T, queueDepth, tenantQueueDepth int) frontEnd {
	fl, err := StartLocal(LocalOptions{N: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	members := make([]Member, fl.N())
	for i := range members {
		members[i] = Member{Name: fl.MemberName(i), URL: fl.URL(i)}
	}
	c, err := NewCoordinator(Config{Members: members, QueueDepth: queueDepth, TenantQueueDepth: tenantQueueDepth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close) // runs before fl.Close
	return frontEnd{
		prefix: "f",
		submit: func(spec service.JobSpec) (string, error) { j, err := c.Submit(spec); return j.ID, err },
		get:    func(id string) (service.State, any, bool) { j, ok := c.Get(id); return j.State, j, ok },
		wait:   func(id string) (service.State, any, error) { j, err := c.Wait(id); return j.State, j, err },
		counts: func() [5]int64 {
			st := c.Stats()
			return [5]int64{st.Submitted, st.Queued, st.Running, st.Done, st.Failed}
		},
		start: c.Start, close: c.Close,
	}
}

// One lifecycle contract for both front ends: unique prefixed IDs, typed
// global and per-tenant overload, Wait returning the terminal snapshot,
// counters that add up once idle, and a Close that drains queued jobs and
// then refuses new ones with ErrClosed.
func TestJobLifecycleContract(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, queueDepth, tenantQueueDepth int) frontEnd
	}{
		{"service", serviceFrontEnd},
		{"coordinator", coordinatorFrontEnd},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fe := tc.build(t, 3, 2)
			spec := func(n int, tenant string) service.JobSpec {
				return service.JobSpec{Model: "gemm", N: n, NPU: "small", Tenant: tenant}
			}
			seen := map[string]bool{}
			admit := func(s service.JobSpec) string {
				t.Helper()
				id, err := fe.submit(s)
				if err != nil {
					t.Fatalf("submit %+v: %v", s, err)
				}
				if !strings.HasPrefix(id, fe.prefix) || seen[id] {
					t.Fatalf("job ID %q: want a fresh ID with prefix %q (have %v)", id, fe.prefix, seen)
				}
				seen[id] = true
				return id
			}
			idle := func(want int64) {
				t.Helper()
				c := fe.counts()
				if c[0] != want || c[0] != c[3]+c[4] || c[1] != 0 || c[2] != 0 {
					t.Fatalf("idle counts [submitted queued running done failed] = %v, want %d submitted, all finished", c, want)
				}
			}

			// Not started yet, so the queue fills deterministically.
			ids := []string{admit(spec(32, "a")), admit(spec(40, "a"))}
			_, err := fe.submit(spec(48, "a"))
			var tover *service.TenantOverloadError
			if !errors.As(err, &tover) || tover.Tenant != "a" || tover.Capacity != 2 {
				t.Fatalf("third job of tenant a: %v, want TenantOverloadError{a, 2}", err)
			}
			ids = append(ids, admit(spec(48, "b")))
			_, err = fe.submit(spec(56, "c"))
			var over *service.OverloadError
			if !errors.As(err, &over) || over.Capacity != 3 || errors.As(err, &tover) {
				t.Fatalf("fourth job: %v, want OverloadError{3}", err)
			}

			fe.start()
			for _, id := range ids {
				state, fin, err := fe.wait(id)
				if err != nil {
					t.Fatal(err)
				}
				if state != service.StateDone {
					t.Fatalf("job %s: %+v", id, fin)
				}
				if _, got, _ := fe.get(id); !reflect.DeepEqual(got, fin) {
					t.Fatalf("Wait returned %+v, but the finished job reads %+v", fin, got)
				}
			}
			idle(3)

			drained := []string{admit(spec(64, "a")), admit(spec(32, "b"))}
			fe.close()
			for _, id := range drained {
				if state, job, _ := fe.get(id); state != service.StateDone {
					t.Fatalf("queued job %s after Close: %+v, want done", id, job)
				}
			}
			if _, err := fe.submit(spec(32, "a")); !errors.Is(err, service.ErrClosed) {
				t.Fatalf("submit after Close: %v, want ErrClosed", err)
			}
			idle(5)
		})
	}
}

// Close leaves no goroutine behind: not a worker, a dispatcher, the health
// prober, nor an HTTP server or client connection of a local fleet.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	spec := service.JobSpec{Model: "gemm", N: 32, NPU: "small"}
	t.Run("service", func(t *testing.T) {
		before := runtime.NumGoroutine()
		s := service.New(service.Config{Workers: 4})
		s.Start()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(j.ID); err != nil {
			t.Fatal(err)
		}
		s.Close()
		settles(t, before)
	})
	t.Run("fleet", func(t *testing.T) {
		before := runtime.NumGoroutine()
		fl, err := StartLocal(LocalOptions{N: 3, Workers: 1, HealthInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		j, err := fl.Coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.Coord.Wait(j.ID); err != nil {
			t.Fatal(err)
		}
		fl.Close()
		settles(t, before)
	})
}

// settles waits for the goroutine count to fall back to baseline; closed
// connections end their goroutines asynchronously.
func settles(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Job snapshots are deep copies on a ptsimd service and on a coordinator
// alike: an in-process caller that mutates what Wait returns — the result,
// its report, the spec's pointers — leaves the job record as it was, so
// the next Get reads it unchanged.
func TestSnapshotsShareNothingWithTheRecord(t *testing.T) {
	fusion := true
	spec := service.JobSpec{Model: "gemm", N: 32, NPU: "small", Fusion: &fusion}
	t.Run("service", func(t *testing.T) {
		s := service.New(service.Config{Workers: 1})
		s.Start()
		t.Cleanup(s.Close)
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotsIsolated(t, func() (service.Job, error) { return s.Wait(j.ID) },
			func() (service.Job, bool) { return s.Get(j.ID) },
			func(j *service.Job) (*service.JobSpec, *service.JobResult) { return &j.Spec, j.Result })
	})
	t.Run("coordinator", func(t *testing.T) {
		fl, err := StartLocal(LocalOptions{N: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fl.Close)
		j, err := fl.Coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotsIsolated(t, func() (Job, error) { return fl.Coord.Wait(j.ID) },
			func() (Job, bool) { return fl.Coord.Get(j.ID) },
			func(j *Job) (*service.JobSpec, *service.JobResult) { return &j.Spec, j.Result })
	})
}

// checkSnapshotsIsolated waits for a finished job, mutates one snapshot's
// result, report and spec, and fails unless a fresh Get still renders
// exactly as the job did before.
func checkSnapshotsIsolated[J any](t *testing.T, wait func() (J, error), get func() (J, bool),
	parts func(*J) (*service.JobSpec, *service.JobResult)) {
	t.Helper()
	before, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(before)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	spec, res := parts(&snap)
	if res == nil || res.Report == nil || res.Report.Energy == nil || len(res.Report.Cores) == 0 {
		t.Fatalf("job finished without a full report: %+v", snap)
	}
	res.Cycles++
	res.Report.Cycles++
	res.Report.Cores[0].SAUtil = -1
	res.Report.Energy.TotalMilliJ = -1
	*spec.Fusion = !*spec.Fusion
	after, ok := get()
	if !ok {
		t.Fatal("job vanished")
	}
	got, err := json.Marshal(after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("mutating a snapshot changed the job record:\nbefore %s\nafter  %s", want, got)
	}
}
