package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// Killing a member mid-batch loses nothing: the coordinator re-dispatches
// the stranded jobs, every job completes exactly once, and every result is
// bit-identical to a single-node run of the same specs. Small enough to run
// under -race in tier-1.
func TestChaosKillMemberMidBatch(t *testing.T) {
	specs := make([]service.JobSpec, 0, 12)
	tenants := []string{"a", "b", "c"}
	for i := 0; i < 12; i++ {
		specs = append(specs, service.JobSpec{
			Model: "gemm", N: 24 + 4*i, NPU: "small",
			Tenant: tenants[i%len(tenants)], Priority: i % 2,
		})
	}

	single := service.New(service.Config{Workers: 2})
	single.Start()
	want := map[int]service.JobResult{}
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
	single.Close()

	fl, err := StartLocal(LocalOptions{
		N: 3, Workers: 1,
		Dispatchers:    2, // keep the batch in flight long enough to be killed under
		HealthInterval: 20 * time.Millisecond,
		MaxAttempts:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	// Find the member that owns the most jobs — the highest-impact victim.
	ownCount := map[int]int{}
	for _, spec := range specs {
		key, err := service.ContentKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		ownCount[fl.OwnerIndex(key)]++
	}
	victim, best := 0, -1
	for i, n := range ownCount {
		if n > best {
			victim, best = i, n
		}
	}

	ids := make([]string, len(specs))
	for i, spec := range specs {
		j, err := fl.Coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}

	// Kill the victim once the batch is genuinely mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := fl.Coord.Stats()
		if st.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	fl.KillMember(victim)
	t.Logf("killed member %d (owned %d of %d jobs)", victim, best, len(specs))

	redispatched := 0
	for i, id := range ids {
		fin, err := fl.Coord.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != service.StateDone {
			t.Fatalf("job %d (%s) failed after kill: %s", i, id, fin.Error)
		}
		if fin.Attempts > 1 {
			redispatched++
			if fin.Member == fl.MemberName(victim) {
				t.Errorf("job %d re-dispatched back onto the dead member %s", i, fin.Member)
			}
		}
		if got := fin.Result.Canonical(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("job %d: post-chaos result differs from single node:\nfleet:  %+v\nsingle: %+v",
				i, got, want[i])
		}
	}
	st := fl.Coord.Stats()
	if st.Done != int64(len(specs)) || st.Failed != 0 {
		t.Fatalf("loss after member kill: %+v", st)
	}
	if st.DuplicateCompletions != 0 {
		t.Fatalf("%d duplicate completions", st.DuplicateCompletions)
	}
	// The kill must actually have been observable (some jobs either
	// re-dispatched or the victim had finished its share before dying);
	// requeues are expected but not guaranteed if the victim drained first.
	t.Logf("stats after chaos: done=%d requeued=%d redispatched_jobs=%d members_up=%d",
		st.Done, st.Requeued, redispatched, st.MembersUp)
	if st.MembersUp != 2 {
		// Health probes may need a beat to notice; poll briefly.
		ok := false
		for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
			if fl.Coord.Stats().MembersUp == 2 {
				ok = true
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !ok {
			t.Fatalf("dead member still counted up: %+v", fl.Coord.Stats())
		}
	}
}

// Exhausting every member fails the job with a terminal error instead of
// hanging.
func TestChaosAllMembersDead(t *testing.T) {
	fl, err := StartLocal(LocalOptions{
		N: 2, Workers: 1,
		HealthInterval: 10 * time.Millisecond,
		MaxAttempts:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fl.KillMember(0)
	fl.KillMember(1)

	j, err := fl.Coord.Submit(service.JobSpec{Model: "gemm", N: 40, NPU: "small"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Job, 1)
	go func() {
		fin, _ := fl.Coord.Wait(j.ID)
		done <- fin
	}()
	select {
	case fin := <-done:
		if fin.State != service.StateFailed || fin.Error == "" {
			t.Fatalf("job against dead fleet: %+v", fin)
		}
	case <-time.After(30 * time.Second):
		t.Fatal(fmt.Errorf("job against dead fleet hung"))
	}
}

// A member that hangs inside POST /jobs holds its dispatch only until the
// prober marks it down: that aborts the request waiting on it, and the job
// finishes on the other member well inside the probes' 10 s timeout.
func TestHungMemberAbortsItsDispatch(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			// Never answers. Reading the body lets the server notice when
			// the client hangs up, which ends the request.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		http.Error(w, "hung", http.StatusInternalServerError)
	}))
	defer hung.Close()
	svc := service.New(service.Config{Workers: 1})
	svc.Start()
	defer svc.Close()
	good := httptest.NewServer(service.NewHandler(svc))
	defer good.Close()

	c, err := NewCoordinator(Config{
		Members:        []Member{{Name: "hung", URL: hung.URL}, {Name: "good", URL: good.URL}},
		HealthInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := service.JobSpec{Model: "gemm", NPU: "small"}
	for spec.N = 16; ; spec.N += 8 {
		key, err := service.ContentKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if c.ring.Owner(key) == "hung" {
			break
		}
	}
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	done := make(chan Job, 1)
	go func() {
		fin, _ := c.Wait(j.ID)
		done <- fin
	}()
	select {
	case fin := <-done:
		if fin.State != service.StateDone || fin.Member != "good" || fin.Attempts != 2 {
			t.Fatalf("job owned by the hung member: %+v, want done on good at attempt 2", fin)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("job owned by the hung member did not finish within 2 s")
	}
}

// A panic while the coordinator finishes a dispatch fails that job alone,
// with the panic in its error: the fault hook runs outside the board's
// lock, the dispatcher recovers, and the next job finishes done without a
// duplicate completion.
func TestDispatchPanicFailsOnlyItsJob(t *testing.T) {
	var panicked atomic.Bool
	fl, err := StartLocal(LocalOptions{
		N: 2, Workers: 1,
		ResultFault: func(string, *service.JobResult) {
			if panicked.CompareAndSwap(false, true) {
				panic("injected dispatch fault")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	run := func(n int) Job {
		t.Helper()
		j, err := fl.Coord.Submit(service.JobSpec{Model: "gemm", N: n, NPU: "small"})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := fl.Coord.Wait(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		return fin
	}
	if bad := run(32); bad.State != service.StateFailed ||
		!strings.HasPrefix(bad.Error, "panic: injected dispatch fault") || !strings.Contains(bad.Error, "goroutine ") {
		t.Fatalf("job whose dispatch panicked: %+v, want failed with the panic and its stack", bad)
	}
	if good := run(40); good.State != service.StateDone || good.Result == nil {
		t.Fatalf("the next job: %+v, want done", good)
	}
	if st := fl.Coord.Stats(); st.Done != 1 || st.Failed != 1 || st.DuplicateCompletions != 0 {
		t.Fatalf("stats after a dispatch panic: done %d failed %d duplicates %d, want 1, 1, 0",
			st.Done, st.Failed, st.DuplicateCompletions)
	}
}
