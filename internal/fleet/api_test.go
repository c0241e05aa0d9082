package fleet

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// readFleetSSE decodes every `data:` payload from an SSE stream.
func readFleetSSE(t *testing.T, body *bufio.Reader) []Event {
	t.Helper()
	var events []Event
	for {
		line, err := body.ReadString('\n')
		if strings.HasPrefix(line, "data: ") {
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			events = append(events, ev)
		}
		if err != nil {
			return events
		}
	}
}

// The coordinator's /jobs/{id}/events stream carries routing and lifecycle
// events and self-terminates on the terminal state, which names the member
// that ran the job and the final cycle count.
func TestFleetJobEventsSSE(t *testing.T) {
	fl, err := StartLocal(LocalOptions{N: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	srv := httptest.NewServer(NewHandler(fl.Coord))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"model":"gemm","n":48,"npu":"small","tenant":"sse"}`))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(srv.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readFleetSSE(t, bufio.NewReader(stream.Body))
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.Kind != "state" || last.State != service.StateDone {
		t.Fatalf("stream did not end on done: %+v", last)
	}
	if last.Member == "" || last.Cycles <= 0 {
		t.Fatalf("terminal event missing member or cycles: %+v", last)
	}

	// A late subscriber gets a single synthetic terminal snapshot.
	late, err := http.Get(srv.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	lateEvents := readFleetSSE(t, bufio.NewReader(late.Body))
	if len(lateEvents) != 1 || lateEvents[0].State != service.StateDone || lateEvents[0].Cycles != last.Cycles {
		t.Fatalf("late subscriber events: %+v", lateEvents)
	}
}

// API error paths: unknown job and events stream 404, malformed JSON 400,
// invalid spec 400, per-tenant overload 429 with the tenant header.
func TestFleetAPIErrors(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Members: []Member{
			{Name: "m0", URL: "http://127.0.0.1:1"},
			{Name: "m1", URL: "http://127.0.0.1:2"},
		},
		QueueDepth:       8,
		TenantQueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	for _, path := range []string{"/jobs/nope", "/jobs/nope/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"model":"no-such-model"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d, want 400", resp.StatusCode)
	}

	// The coordinator is not started, so submissions queue up: the second
	// job under a depth-1 tenant is rejected with the typed 429.
	spec := `{"model":"gemm","n":32,"npu":"small","tenant":"bulk"}`
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Overloaded-Tenant"); got != "bulk" {
		t.Fatalf("X-Overloaded-Tenant = %q, want bulk", got)
	}
	var body struct {
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Tenant != "bulk" {
		t.Fatalf("429 body tenant = %q", body.Tenant)
	}
}

// A closed coordinator refuses new jobs with 503, like a closed member.
func TestClosedCoordinatorAnswers503(t *testing.T) {
	coord, err := NewCoordinator(Config{Members: []Member{{Name: "m0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"model":"gemm","n":32,"npu":"small"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs on a closed coordinator: %d, want 503", resp.StatusCode)
	}
}

// A member that is draining turns a dispatch away with an error the
// coordinator re-dispatches, not a permanent rejection that fails the job.
func TestDrainingMemberRejectionIsRetryable(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start()
	svc.Close()
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	m := newMemberState(Member{Name: "m0", URL: srv.URL})
	_, err := m.submit(service.JobSpec{Model: "gemm", N: 32, NPU: "small"})
	if err == nil || isPermanent(err) {
		t.Fatalf("submit to a draining member: %v, want a retryable error", err)
	}
}
