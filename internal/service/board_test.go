package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// A closed daemon refuses new jobs with 503, a retryable status, not the
// 400 of an invalid spec: a coordinator must be free to send the job to
// another member.
func TestClosedServiceAnswers503(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.Start()
	svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"model":"gemm","n":32,"npu":"small"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs on a closed service: %d, want 503", resp.StatusCode)
	}
	if _, err := svc.Submit(JobSpec{Model: "gemm", N: 32, NPU: "small"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on a closed service: %v, want ErrClosed", err)
	}
}

// The board finishes a job once: a second Finish leaves the record and
// the done/failed counters alone and counts a duplicate instead.
func TestBoardFinishOnce(t *testing.T) {
	type rec struct{ ID, State string }
	b := NewBoard("r", 4, 0, nil, func(r *rec) rec { return *r })
	j, err := b.Submit("t", 0, func(id string) *rec { return &rec{ID: id, State: "queued"} })
	if err != nil {
		t.Fatal(err)
	}
	b.Start(1, func(r *rec) {
		b.Finish(r.ID, func() bool { r.State = "done"; return false }, func() {})
		b.Finish(r.ID, func() bool { r.State = "failed"; return true }, func() {})
	})
	fin, err := b.Wait(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if fin.State != "done" {
		t.Fatalf("second Finish rewrote the record: %+v", fin)
	}
	c := b.Counts(nil)
	if c.Done != 1 || c.Failed != 0 || c.Duplicates != 1 || c.Running != 0 || c.TenantDone["t"] != 1 {
		t.Fatalf("counts after a duplicate finish: %+v", c)
	}
}

// A job recorded finished at admission takes the next ID of the same
// sequence Submit mints from, is waitable at once, counts as submitted and
// done for its tenant without passing through queued or running, and is
// refused once the board is closed.
func TestBoardRecord(t *testing.T) {
	type rec struct{ ID, State string }
	b := NewBoard("r", 4, 0, nil, func(r *rec) rec { return *r })
	queued, err := b.Submit("t", 0, func(id string) *rec { return &rec{ID: id, State: "queued"} })
	if err != nil {
		t.Fatal(err)
	}
	done, err := b.Record("u", func(id string) *rec { return &rec{ID: id, State: "done"} })
	if err != nil {
		t.Fatal(err)
	}
	if queued.ID != "r1" || done.ID != "r2" || done.State != "done" {
		t.Fatalf("Submit then Record minted %q and %+v, want r1 and a done r2", queued.ID, done)
	}
	waited := make(chan rec, 1)
	go func() { j, _ := b.Wait(done.ID); waited <- j }()
	select {
	case j := <-waited:
		if j != done {
			t.Fatalf("Wait returned %+v, want %+v", j, done)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait on a recorded job blocked")
	}
	c := b.Counts(nil)
	if c.Submitted != 2 || c.Queued != 1 || c.Running != 0 || c.Done != 1 || c.Failed != 0 ||
		c.TenantDone["u"] != 1 || c.TenantQueued["u"] != 0 || c.TenantQueued["t"] != 1 {
		t.Fatalf("counts after one Submit and one Record: %+v", c)
	}
	if next, err := b.Submit("t", 0, func(id string) *rec { return &rec{ID: id} }); err != nil || next.ID != "r3" {
		t.Fatalf("Submit after Record: %+v %v, want r3", next, err)
	}
	b.Start(1, func(r *rec) { b.Finish(r.ID, func() bool { return false }, func() {}) })
	b.Close()
	if _, err := b.Record("u", func(id string) *rec { return &rec{ID: id} }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Record on a closed board: %v, want ErrClosed", err)
	}
	if c := b.Counts(nil); c.Submitted != 3 || c.Done != 3 {
		t.Fatalf("counts after Close: %+v", c)
	}
}
