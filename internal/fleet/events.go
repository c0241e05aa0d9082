package fleet

import "repro/internal/service"

// Event is one entry of a fleet job's routing/lifecycle stream: which
// member the job was dispatched to, re-dispatches after a member death, and
// the terminal state. Progress samples stay on the member's own
// /jobs/{id}/events stream; the coordinator's stream is about routing. It
// travels through the same service.Hub and SSE handler as a member's
// service.JobEvent.
type Event struct {
	Seq     int64         `json:"seq"`
	Kind    string        `json:"kind"` // "state" or "route"
	State   service.State `json:"state,omitempty"`
	Member  string        `json:"member,omitempty"`
	Attempt int           `json:"attempt,omitempty"`
	Cycles  int64         `json:"cycles,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// WithSeq, SSEKind and Terminal make Event a service.StreamEvent.
func (e Event) WithSeq(seq int64) Event { e.Seq = seq; return e }
func (e Event) SSEKind() string         { return e.Kind }
func (e Event) Terminal() bool          { return e.Kind == "state" && e.State.Terminal() }
