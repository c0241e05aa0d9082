package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/service/cache"
)

// NewHandler wraps a service in its HTTP/JSON API:
//
//	POST /jobs             submit a JobSpec; 202 with the job snapshot,
//	                       429 when the queue (or the tenant's share of
//	                       it) is full — the body names the tenant for
//	                       per-tenant throttling, 400 on an invalid spec,
//	                       503 once the daemon is draining. A spec whose
//	                       result is cached comes back already done with
//	                       its result, whatever the queue holds
//	POST /jobs?wait=1      the same admission, then 200 with the finished
//	                       job once it has ended (done or failed); at once
//	                       for a cached spec
//	GET  /jobs/{id}        job snapshot (state, result once done); 404 if
//	                       unknown
//	GET  /jobs/{id}/events Server-Sent Events stream of the job's
//	                       lifecycle (queued/running/done) and coarse
//	                       engine progress fed from the obs probes
//	GET  /stats            service counters (queue, cache, tenants,
//	                       simulation rate)
//	GET  /metrics          the same counters in Prometheus text exposition
//	                       format, plus queue-wait and job-latency
//	                       histograms
//	GET  /cache/{key}      one artifact from the node's local cache tier,
//	                       wrapped in the checksummed wire envelope — the
//	                       fleet peer-cache protocol (404 on miss)
//	PUT  /cache/{key}      store an envelope-wrapped artifact pushed by a
//	                       fleet peer (400 on a corrupt envelope)
//
// The handler is what cmd/ptsimd serves; tests drive it via httptest so
// the daemon binary stays a thin main.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", SubmitHandler(s.Submit, func(j Job) (Job, error) { return s.Wait(j.ID) }))
	mux.HandleFunc("GET /jobs/{id}", GetHandler(s.Get))
	mux.HandleFunc("GET /jobs/{id}/events", EventsHandler(s.events, func(id string) (JobEvent, bool) {
		job, ok := s.Get(id)
		ev := JobEvent{Kind: "state", State: job.State, Tenant: job.Spec.Tenant, Error: job.Error}
		if job.Result != nil {
			ev.Cycles = job.Result.Cycles
		}
		return ev, ok
	}))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = s.Metrics().WriteTo(w)
	})
	mux.HandleFunc("GET /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, ok := s.CacheGet(r.PathValue("key"))
		if !ok {
			WriteError(w, http.StatusNotFound, "no artifact for key")
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(cache.SealEnvelope(data))
	})
	mux.HandleFunc("PUT /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(io.LimitReader(r.Body, cache.PeerMaxEntryBytes+1))
		if err != nil || len(raw) > cache.PeerMaxEntryBytes {
			WriteError(w, http.StatusBadRequest, "artifact too large or unreadable")
			return
		}
		payload, ok := cache.OpenEnvelope(raw)
		if !ok {
			// A corrupt push is rejected, never stored: the envelope is the
			// fleet's end-to-end integrity check.
			WriteError(w, http.StatusBadRequest, "corrupt artifact envelope")
			return
		}
		if err := s.CachePut(r.PathValue("key"), payload); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// SubmitHandler is POST /jobs for any front end that admits a JobSpec (a
// ptsimd member or the fleet coordinator): 202 with the job snapshot —
// already done when the front end answered the job at admission, as a
// ptsimd member does a result-cache hit — 429
// when the queue or the tenant's share of it is full — the body and the
// X-Overloaded-Tenant header name the tenant — 503 once the front end is
// closed (a retryable refusal: a coordinator re-dispatches elsewhere), and
// 400 on an invalid spec. With ?wait=1 an admitted job is answered 200
// with the snapshot wait returns once the job has ended, so one request
// runs a job to its result; the wait lasts as long as the job, whether or
// not the client is still there.
func SubmitHandler[J any](submit func(JobSpec) (J, error), wait func(J) (J, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		job, err := submit(spec)
		if err != nil {
			var over *OverloadError
			var tover *TenantOverloadError
			switch {
			case errors.As(err, &tover):
				w.Header().Set("X-Overloaded-Tenant", tover.Tenant)
				WriteJSON(w, http.StatusTooManyRequests,
					map[string]string{"error": err.Error(), "tenant": tover.Tenant})
			case errors.As(err, &over):
				WriteError(w, http.StatusTooManyRequests, err.Error())
			case errors.Is(err, ErrClosed):
				WriteError(w, http.StatusServiceUnavailable, err.Error())
			default:
				WriteError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		if r.URL.Query().Get("wait") != "1" {
			WriteJSON(w, http.StatusAccepted, job)
			return
		}
		if job, err = wait(job); err != nil {
			WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, job)
	}
}

// GetHandler is GET /jobs/{id}: the job snapshot, or 404 if unknown.
func GetHandler[J any](get func(id string) (J, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, ok := get(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
			return
		}
		WriteJSON(w, http.StatusOK, job)
	}
}

// WriteJSON writes v as the indented JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the API's error body, {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
