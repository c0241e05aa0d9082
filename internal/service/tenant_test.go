package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service/cache"
)

// A tenant that fills its share of the queue gets a typed per-tenant
// rejection naming it, while other tenants are still admitted — the
// noisy-neighbour admission contract.
func TestTenantOverloadTyped(t *testing.T) {
	// Not started: submissions stay queued, so the depths are exact.
	s := New(Config{Workers: 1, QueueDepth: 16, TenantQueueDepth: 2})
	defer s.Close()

	spec := JobSpec{Model: "gemm", N: 32, NPU: "small", Tenant: "noisy"}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(spec)
	var tover *TenantOverloadError
	if !errors.As(err, &tover) {
		t.Fatalf("third submit: got %v, want *TenantOverloadError", err)
	}
	if tover.Tenant != "noisy" {
		t.Fatalf("overload names tenant %q, want noisy", tover.Tenant)
	}
	// A generic OverloadError must NOT match: callers that switch on the
	// tenant-typed error first rely on the distinction.
	quiet := spec
	quiet.Tenant = "quiet"
	if _, err := s.Submit(quiet); err != nil {
		t.Fatalf("other tenant rejected during noisy overload: %v", err)
	}
	st := s.Stats()
	if st.TenantQueued["noisy"] != 2 || st.TenantQueued["quiet"] != 1 {
		t.Fatalf("tenant queue depths: %+v", st.TenantQueued)
	}
}

// With weighted-fair scheduling and one worker, a 3:1 tenant outweighs a
// 1:1 tenant: both heavy jobs start before either light job, and the
// per-tenant done counters record the split.
func TestTenantWeightedFairness(t *testing.T) {
	s := New(Config{Workers: 1, TenantWeights: map[string]int{"heavy": 3, "light": 1}})
	defer s.Close()

	// Enqueue before starting so the fair queue orders all four at once.
	var heavy, light []string
	for i := 0; i < 2; i++ {
		j, err := s.Submit(JobSpec{Model: "gemm", N: 32 + 8*i, NPU: "small", Tenant: "heavy"})
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, j.ID)
		j, err = s.Submit(JobSpec{Model: "gemm", N: 48 + 8*i, NPU: "small", Tenant: "light"})
		if err != nil {
			t.Fatal(err)
		}
		light = append(light, j.ID)
	}
	s.Start()
	for _, id := range append(append([]string{}, heavy...), light...) {
		fin, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != StateDone {
			t.Fatalf("job %s failed: %s", id, fin.Error)
		}
	}
	// One worker runs jobs strictly in pop order, so Started timestamps
	// order the schedule: virtual time puts heavy at 1/3, 2/3 ahead of
	// light at 1, 2.
	for _, h := range heavy {
		hj, _ := s.Get(h)
		for _, l := range light {
			lj, _ := s.Get(l)
			if !hj.Started.Before(lj.Started) {
				t.Fatalf("weight-3 job %s started %v, after weight-1 job %s at %v",
					h, hj.Started, l, lj.Started)
			}
		}
	}
	st := s.Stats()
	if st.TenantDone["heavy"] != 2 || st.TenantDone["light"] != 2 {
		t.Fatalf("tenant done counts: %+v", st.TenantDone)
	}
}

// The HTTP surface of per-tenant overload: 429 with the tenant named in
// both the X-Overloaded-Tenant header and the JSON body.
func TestHTTPTenantOverload(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, TenantQueueDepth: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	spec := `{"model":"gemm","n":32,"npu":"small","tenant":"bulk"}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(spec))
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
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Overloaded-Tenant"); got != "bulk" {
		t.Fatalf("X-Overloaded-Tenant = %q, want bulk", got)
	}
	var body struct {
		Error  string `json:"error"`
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Tenant != "bulk" || body.Error == "" {
		t.Fatalf("429 body: %+v", body)
	}
}

// readSSE decodes every `data:` payload from an SSE stream.
func readSSE(t *testing.T, body *bufio.Reader) []JobEvent {
	t.Helper()
	var events []JobEvent
	for {
		line, err := body.ReadString('\n')
		if strings.HasPrefix(line, "data: ") {
			var ev JobEvent
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

// The /jobs/{id}/events stream delivers the job's lifecycle over SSE and
// terminates itself after the terminal state, which carries the final
// cycle count.
func TestHTTPJobEventsSSE(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"model":"gemm","n":64,"npu":"small","tenant":"sse"}`))
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
	events := readSSE(t, bufio.NewReader(stream.Body))
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.Kind != "state" || last.State != StateDone {
		t.Fatalf("stream did not end on done: %+v", last)
	}
	if last.Cycles <= 0 {
		t.Fatalf("terminal event has no cycle count: %+v", last)
	}
	if last.Tenant != "sse" {
		t.Fatalf("terminal event tenant = %q", last.Tenant)
	}

	// A late subscriber gets one synthetic terminal snapshot and the
	// stream closes immediately.
	fin, err := s.Wait(job.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("wait: %v %+v", err, fin)
	}
	late, err := http.Get(srv.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	lateEvents := readSSE(t, bufio.NewReader(late.Body))
	if len(lateEvents) != 1 || lateEvents[0].State != StateDone || lateEvents[0].Cycles != fin.Result.Cycles {
		t.Fatalf("late subscriber events: %+v", lateEvents)
	}

	// Unknown job: 404, not a stream.
	notFound, err := http.Get(srv.URL + "/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: %d, want 404", notFound.StatusCode)
	}
}

// A long-enough run with a subscriber attached must surface "progress"
// events fed from the engine's obs probe — on one package or across the
// packages of a topology, which run through the same funnel — and
// attaching the probe must not change the result (the crosscheck probe
// oracle's claim, re-checked here end to end over HTTP).
func TestHTTPJobProgressEvents(t *testing.T) {
	for name, spec := range map[string]JobSpec{
		"single":      {Model: "mlp", Batch: 4, NPU: "small"},
		"pkg2-tensor": {Model: "decoder-small", Ctx: 8, NPU: "small", Topology: "pkg2", Parallel: "tensor"},
	} {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Workers: 1})
			defer s.Close()
			srv := httptest.NewServer(NewHandler(s))
			defer srv.Close()

			// Submit while stopped, subscribe, then start: the subscriber is
			// guaranteed to be attached when the run begins, so the progress
			// probe is installed.
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := http.Get(srv.URL + "/jobs/" + j.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Body.Close()
			s.Start()
			events := readSSE(t, bufio.NewReader(stream.Body))
			progress := 0
			for _, ev := range events {
				if ev.Kind == "progress" {
					progress++
					if ev.Spans <= 0 || ev.Cycle <= 0 {
						t.Fatalf("empty progress event: %+v", ev)
					}
				}
			}
			if progress == 0 {
				t.Fatalf("no progress events among %d events", len(events))
			}
			fin, err := s.Wait(j.ID)
			if err != nil || fin.State != StateDone {
				t.Fatalf("wait: %v %+v", err, fin)
			}

			// Same spec on a probe-free service: bit-identical cycles.
			plain := New(Config{Workers: 1})
			plain.Start()
			defer plain.Close()
			pj, err := plain.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			pfin, err := plain.Wait(pj.ID)
			if err != nil || pfin.State != StateDone {
				t.Fatalf("plain wait: %v %+v", err, pfin)
			}
			if fin.Result.Cycles != pfin.Result.Cycles {
				t.Fatalf("probe changed the result: %d vs %d cycles", fin.Result.Cycles, pfin.Result.Cycles)
			}
		})
	}
}

// The peer-cache wire endpoints: GET serves a checksummed envelope, PUT
// stores one, and a corrupt envelope is rejected without touching the
// store.
func TestHTTPCacheEndpoints(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	// A peer tier (even with no peers to ask) wires up the local store
	// tier the wire endpoints serve.
	s.EnablePeerCache(cache.NewPeer(nil, 0))
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	payload := []byte("artifact-bytes")
	if err := s.CachePut("wire-key", payload); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/cache/wire-key")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache get: %d", resp.StatusCode)
	}
	if buf.Len() <= len(payload) {
		t.Fatalf("envelope not larger than payload: %d bytes", buf.Len())
	}

	miss, err := http.Get(srv.URL + "/cache/absent-key")
	if err != nil {
		t.Fatal(err)
	}
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("cache miss: %d, want 404", miss.StatusCode)
	}

	// Corrupt PUT: flip a byte inside a valid envelope.
	envelope := buf.Bytes()
	envelope[len(envelope)-1] ^= 1
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cache/poisoned", bytes.NewReader(envelope))
	bad, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt put: %d, want 400", bad.StatusCode)
	}
	if _, ok := s.CacheGet("poisoned"); ok {
		t.Fatal("corrupt artifact was stored")
	}
}

// ParseTenantWeights is the -tenant-weights flag of ptsimd and ptsimfleet:
// "" means no weights, and anything that is not name=positive-int fails.
func TestParseTenantWeights(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]int
		err  bool
	}{
		{in: "", want: nil},
		{in: "a=3,b=1", want: map[string]int{"a": 3, "b": 1}},
		{in: " a=3 , b=1 ", want: map[string]int{"a": 3, "b": 1}},
		{in: " ", err: true},
		{in: "a=3,", err: true},
		{in: "a=0", err: true},
		{in: "a=-2", err: true},
		{in: "=3", err: true},
		{in: "a=x", err: true},
		{in: "a", err: true},
	} {
		got, err := ParseTenantWeights(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseTenantWeights(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseTenantWeights(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
