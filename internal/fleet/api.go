package fleet

import (
	"net/http"

	"repro/internal/service"
)

// NewHandler wraps a coordinator in its HTTP/JSON API — the same shape as
// one ptsimd, plus fleet membership:
//
//	POST /jobs             submit; 202 with the fleet job snapshot, 429 on
//	                       coordinator overload (global or per-tenant),
//	                       503 once the coordinator is draining
//	POST /jobs?wait=1      the same admission, then 200 with the finished
//	                       fleet job once it has ended (done or failed)
//	GET  /jobs/{id}        fleet job snapshot (routing member, attempts,
//	                       result once done)
//	GET  /jobs/{id}/events SSE stream of routing and lifecycle events
//	GET  /stats            coordinator counters plus the merged member view
//	GET  /metrics          the same, in Prometheus text exposition format
//	GET  /members          fleet membership and health
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", service.SubmitHandler(c.Submit, func(j Job) (Job, error) { return c.Wait(j.ID) }))
	mux.HandleFunc("GET /jobs/{id}", service.GetHandler(c.Get))
	mux.HandleFunc("GET /jobs/{id}/events", service.EventsHandler(c.events, func(id string) (Event, bool) {
		job, ok := c.Get(id)
		ev := Event{Kind: "state", State: job.State, Member: job.Member, Attempt: job.Attempts, Error: job.Error}
		if job.Result != nil {
			ev.Cycles = job.Result.Cycles
		}
		return ev, ok
	}))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = c.Metrics().WriteTo(w)
	})
	mux.HandleFunc("GET /members", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.MemberList())
	})
	return mux
}
