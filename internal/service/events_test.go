package service

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The event hub keeps nothing for a job once it has ended and its streams
// have closed: jobs with subscribers that arrived before they ran, and
// again after they finished, leave the hub empty.
func TestHubForgetsFinishedJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	stream := func(id string) []JobEvent {
		resp, err := http.Get(srv.URL + "/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return readSSE(t, bufio.NewReader(resp.Body))
	}
	var ids []string
	for _, n := range []int{32, 48, 32, 64} { // one repeat: a result hit
		j, err := s.Submit(JobSpec{Model: "gemm", N: n, NPU: "small"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Early subscribers attach while the jobs are still queued.
	early := make([]chan []JobEvent, len(ids))
	for i, id := range ids {
		resp, err := http.Get(srv.URL + "/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		early[i] = make(chan []JobEvent, 1)
		go func(ch chan []JobEvent) {
			defer resp.Body.Close()
			ch <- readSSE(t, bufio.NewReader(resp.Body))
		}(early[i])
	}
	s.Start()
	for i, id := range ids {
		evs := <-early[i]
		if last := evs[len(evs)-1]; last.State != StateDone {
			t.Fatalf("early stream of %s ended on %+v", id, last)
		}
		fin, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if late := stream(id); len(late) != 1 || late[0].State != StateDone || late[0].Cycles != fin.Result.Cycles {
			t.Fatalf("late stream of %s: %+v", id, late)
		}
	}
	s.events.mu.Lock()
	defer s.events.mu.Unlock()
	if len(s.events.subs) != 0 {
		t.Fatalf("hub still holds subscriber lists for %d jobs: %v", len(s.events.subs), fmt.Sprint(s.events.subs))
	}
}
