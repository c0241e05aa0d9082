package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// Member identifies one ptsimd instance: a stable name (the consistent-hash
// ring ID, shared by every node so ownership agrees fleet-wide) and the base
// URL of its HTTP API.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// submitRetries bounds how many times a dispatcher retries a 429 from one
// member before requeueing the job; each retry backs off exponentially from
// submitBackoff.
const (
	submitRetries = 4
	submitBackoff = 25 * time.Millisecond
	// healthFailures consecutive probe failures mark a member down; one
	// success marks it back up.
	healthFailures = 3
	// maxRespBytes caps any member response the coordinator parses.
	maxRespBytes = 8 << 20
	// memberTimeout bounds each member HTTP round trip; pollInterval is a
	// dispatcher's result-poll period.
	memberTimeout = 10 * time.Second
	pollInterval  = 5 * time.Millisecond
)

// permanentError marks a member rejection that re-dispatching cannot fix
// (an invalid spec): the job fails instead of walking the ring.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func isPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// memberState is the coordinator's live view of one member: the HTTP
// client, health, the last /stats snapshot the health loop cached (the
// source of the fleet-merged metric families), and dispatch accounting.
type memberState struct {
	Member
	client *http.Client

	mu         sync.Mutex
	up         bool
	fails      int // consecutive probe failures
	skip       int // health probes to skip (backoff while down)
	skipLeft   int // countdown of the current skip window
	stats      service.Stats
	statsOK    bool
	dispatched int64 // jobs this coordinator sent here
}

func newMemberState(m Member) *memberState {
	return &memberState{
		Member: m,
		client: &http.Client{Timeout: memberTimeout},
		up:     true, // optimistic until the first probe says otherwise
	}
}

// submit posts the spec, retrying briefly on 429 (the member's queue, or
// the tenant's share of it, is momentarily full). A 4xx other than 429 is
// permanent; transport errors and 5xx (a draining member answers 503) are
// retryable by re-dispatch.
func (m *memberState) submit(spec service.JobSpec) (service.Job, error) {
	var job service.Job
	body, err := json.Marshal(spec)
	if err != nil {
		return job, &permanentError{err}
	}
	backoff := submitBackoff
	for attempt := 0; ; attempt++ {
		resp, err := m.client.Post(m.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return job, err
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
		resp.Body.Close()
		if rerr != nil {
			return job, rerr
		}
		switch {
		case resp.StatusCode == http.StatusAccepted:
			return job, json.Unmarshal(data, &job)
		case resp.StatusCode == http.StatusTooManyRequests && attempt < submitRetries:
			time.Sleep(backoff)
			backoff *= 2
		case resp.StatusCode == http.StatusTooManyRequests:
			return job, fmt.Errorf("fleet: member %s still overloaded after %d retries", m.Name, submitRetries)
		default:
			err := fmt.Errorf("fleet: member %s rejected job: %s: %s",
				m.Name, resp.Status, strings.TrimSpace(string(data)))
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return job, &permanentError{err}
			}
			return job, err
		}
	}
}

// getJob fetches one job snapshot from the member.
func (m *memberState) getJob(id string) (service.Job, error) {
	var job service.Job
	resp, err := m.client.Get(m.URL + "/jobs/" + id)
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	if err != nil {
		return job, err
	}
	if resp.StatusCode != http.StatusOK {
		return job, fmt.Errorf("fleet: member %s: %s: %s", m.Name, resp.Status, strings.TrimSpace(string(data)))
	}
	return job, json.Unmarshal(data, &job)
}

// probe hits /stats and updates health: one success marks the member up
// and caches the snapshot; healthFailures consecutive failures mark it
// down, after which probes back off exponentially (1, 2, 4, ... intervals,
// capped) so a dead member costs little.
func (m *memberState) probe() {
	m.mu.Lock()
	if m.skipLeft > 0 {
		m.skipLeft--
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()

	var st service.Stats
	resp, err := m.client.Get(m.URL + "/stats")
	if err == nil {
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
		resp.Body.Close()
		if rerr == nil && resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(data, &st)
		} else {
			err = fmt.Errorf("fleet: probe %s: status %d", m.Name, resp.StatusCode)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		m.up = true
		m.fails = 0
		m.skip = 0
		m.stats = st
		m.statsOK = true
		return
	}
	m.fails++
	if m.fails >= healthFailures {
		m.up = false
		if m.skip < 8 {
			if m.skip == 0 {
				m.skip = 1
			} else {
				m.skip *= 2
			}
		}
		m.skipLeft = m.skip
	}
}

// isUp reports current health.
func (m *memberState) isUp() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.up
}

// markDown records an observed failure from the dispatch path (a transport
// error submitting or polling), feeding the same counter the prober uses so
// a dead member is detected from either side.
func (m *memberState) markDown() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails++
	if m.fails >= healthFailures {
		m.up = false
	}
}

// snapshot returns the member's health, cached service stats, and dispatch
// count.
func (m *memberState) snapshot() (up bool, st *service.Stats, dispatched int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.statsOK {
		c := m.stats
		st = &c
	}
	return m.up, st, m.dispatched
}

func (m *memberState) noteDispatch() {
	m.mu.Lock()
	m.dispatched++
	m.mu.Unlock()
}
