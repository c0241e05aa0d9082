package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// JobEvent is one entry of a job's progress stream: a lifecycle state
// transition, or a coarse mid-run progress sample fed by the engine's
// observability probe. Events are advisory — the job record (Get/Wait) is
// the source of truth — so slow consumers lose progress samples, never
// final states arriving out of order (the stream closes after the terminal
// state event).
type JobEvent struct {
	Seq    int64  `json:"seq"`
	Kind   string `json:"kind"` // "state" or "progress"
	State  State  `json:"state,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Spans/Cycle describe progress events: engine spans completed so far
	// and the simulated cycle of the latest one.
	Spans int64 `json:"spans,omitempty"`
	Cycle int64 `json:"cycle,omitempty"`
	// Cycles is the final cycle count on the terminal "done" event.
	Cycles int64  `json:"cycles,omitempty"`
	Error  string `json:"error,omitempty"`
}

// WithSeq, SSEKind and Terminal make JobEvent a StreamEvent.
func (e JobEvent) WithSeq(seq int64) JobEvent { e.Seq = seq; return e }
func (e JobEvent) SSEKind() string            { return e.Kind }
func (e JobEvent) Terminal() bool             { return e.Kind == "state" && e.State.Terminal() }

// StreamEvent is what a Hub fans out and EventsHandler renders: JobEvent
// on a member, fleet.Event on the coordinator.
type StreamEvent[E any] interface {
	WithSeq(seq int64) E // the event stamped with the hub's sequence number
	SSEKind() string     // the SSE frame's `event:` name
	Terminal() bool      // the job's last event; its stream ends after it
}

// Hub fans job events out to SSE subscribers. Publishing never blocks: a
// subscriber that cannot keep up drops events (the buffer holds the most
// recent window, and terminal states are always the last thing sent before
// close). It keeps state only for jobs that have subscribers.
type Hub[E StreamEvent[E]] struct {
	mu   sync.Mutex
	subs map[string][]chan E
	seq  int64
}

func NewHub[E StreamEvent[E]]() *Hub[E] {
	return &Hub[E]{subs: map[string][]chan E{}}
}

// Subscribe returns a channel of events for the job and a cancel func that
// must be called once the caller stops reading. The hub does not remember
// finished jobs: a subscriber to one receives nothing, so the caller
// snapshots the job after subscribing (as EventsHandler does) and ends the
// stream on a terminal snapshot.
func (h *Hub[E]) Subscribe(jobID string) (<-chan E, func()) {
	ch := make(chan E, 64)
	h.mu.Lock()
	h.subs[jobID] = append(h.subs[jobID], ch)
	h.mu.Unlock()
	cancel := func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		subs := h.subs[jobID]
		for i, c := range subs {
			if c == ch {
				subs = append(subs[:i], subs[i+1:]...)
				break
			}
		}
		if len(subs) == 0 {
			delete(h.subs, jobID)
		} else {
			h.subs[jobID] = subs
		}
	}
	return ch, cancel
}

// Publish stamps ev with the next sequence number and sends it to every
// subscriber of jobID, dropping on full buffers.
func (h *Hub[E]) Publish(jobID string, ev E) {
	h.mu.Lock()
	h.seq++
	ev = ev.WithSeq(h.seq)
	for _, ch := range h.subs[jobID] {
		select {
		case ch <- ev:
		default: // slow consumer: drop rather than stall a worker
		}
	}
	h.mu.Unlock()
}

// Finish closes every subscriber stream of jobID and forgets the job.
func (h *Hub[E]) Finish(jobID string) {
	h.mu.Lock()
	subs := h.subs[jobID]
	delete(h.subs, jobID)
	h.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// CloseAll terminates every open stream (shutdown).
func (h *Hub[E]) CloseAll() {
	h.mu.Lock()
	subs := h.subs
	h.subs = map[string][]chan E{}
	h.mu.Unlock()
	for _, chans := range subs {
		for _, ch := range chans {
			close(ch)
		}
	}
}

// hasSubscribers reports whether anyone is listening to jobID right now.
func (h *Hub[E]) hasSubscribers(jobID string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs[jobID]) > 0
}

// EventsHandler is GET /jobs/{id}/events: the job's events from h as
// Server-Sent Events, one `event:`/`data:` pair each, ending after the
// terminal state. snapshot renders a job's current state as an event
// (false: unknown job, 404). It opens every stream, so a subscriber
// arriving after the job finished gets that single frame, and it closes a
// stream whose terminal event a full buffer dropped.
func EventsHandler[E StreamEvent[E]](h *Hub[E], snapshot func(id string) (E, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := snapshot(id); !ok {
			WriteError(w, http.StatusNotFound, "unknown job "+id)
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			WriteError(w, http.StatusInternalServerError, "streaming unsupported")
			return
		}
		// Subscribe before snapshotting so no terminal transition can fall
		// between the snapshot and the stream.
		ch, cancel := h.Subscribe(id)
		defer cancel()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)

		send := func(ev E) {
			writeSSE(w, ev)
			fl.Flush()
		}
		snap, _ := snapshot(id)
		send(snap)
		if snap.Terminal() {
			return
		}
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					// Stream closed: emit the final snapshot in case the
					// terminal event was dropped by a full buffer.
					if fin, ok := snapshot(id); ok && fin.Terminal() {
						send(fin)
					}
					return
				}
				send(ev)
				if ev.Terminal() {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	}
}

func writeSSE[E StreamEvent[E]](w io.Writer, ev E) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.SSEKind(), data)
}

// progressEvery throttles probe-fed progress events: one event per this
// many engine spans keeps the stream light even for billion-cycle runs.
const progressEvery = 4096

// progressProbe returns an obs.Probe that feeds throttled progress events
// to the job's subscribers, or nil when nobody is listening at run start
// (the nil probe keeps the engine hot path allocation-free). Probes are
// proven invisible in Results by the crosscheck probe oracle, so attaching
// one cannot change the job's outcome.
func progressProbe(h *Hub[JobEvent], jobID string) obs.Probe {
	if !h.hasSubscribers(jobID) {
		return nil
	}
	return &progress{hub: h, job: jobID}
}

type progress struct {
	hub   *Hub[JobEvent]
	job   string
	spans atomic.Int64
	cycle atomic.Int64
}

func (p *progress) TrackName(t obs.Track, process, lane string) {}

func (p *progress) Span(t obs.Track, name string, start, end int64, info obs.SpanInfo) {
	for {
		old := p.cycle.Load()
		if end <= old || p.cycle.CompareAndSwap(old, end) {
			break
		}
	}
	if n := p.spans.Add(1); n%progressEvery == 0 {
		p.hub.Publish(p.job, JobEvent{Kind: "progress", Spans: n, Cycle: p.cycle.Load()})
	}
}

func (p *progress) Counter(t obs.Track, name string, cycle int64, value float64) {}
