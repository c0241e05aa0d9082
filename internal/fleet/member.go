package fleet

import (
	"bytes"
	"context"
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
	// memberTimeout bounds each health probe. A dispatch has no such
	// bound: it lasts as long as its job, and the health path ends it.
	memberTimeout = 10 * time.Second
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
// clients, health, the last /stats snapshot the health loop cached (the
// source of the fleet-merged metric families), and dispatch accounting.
type memberState struct {
	Member
	probes *http.Client // bounded by memberTimeout
	jobs   *http.Client // unbounded: a dispatch waits for its job

	mu sync.Mutex
	up bool
	// live carries every dispatch to the member: marking the member down
	// aborts them all, and marking it up again renews it.
	live       context.Context
	abort      context.CancelFunc
	fails      int // consecutive probe failures
	skip       int // health probes to skip (backoff while down)
	skipLeft   int // countdown of the current skip window
	stats      service.Stats
	statsOK    bool
	dispatched int64 // jobs this coordinator sent here
}

func newMemberState(m Member) *memberState {
	live, abort := context.WithCancel(context.Background())
	return &memberState{
		Member: m,
		probes: &http.Client{Timeout: memberTimeout},
		jobs:   &http.Client{},
		up:     true, // optimistic until the first probe says otherwise
		live:   live, abort: abort,
	}
}

// submit runs the spec on the member in one round trip, POST /jobs?wait=1,
// and returns the member's finished job. It retries briefly on 429 (the
// member's queue, or the tenant's share of it, is momentarily full). A 4xx
// other than 429 is permanent; transport errors, 5xx (a draining member
// answers 503) and a member marked down mid-job are retryable by
// re-dispatch.
func (m *memberState) submit(spec service.JobSpec) (service.Job, error) {
	var job service.Job
	body, err := json.Marshal(spec)
	if err != nil {
		return job, &permanentError{err}
	}
	m.mu.Lock()
	live := m.live
	m.mu.Unlock()
	backoff := submitBackoff
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(live, http.MethodPost, m.URL+"/jobs?wait=1", bytes.NewReader(body))
		if err != nil {
			return job, &permanentError{err}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := m.jobs.Do(req)
		if err != nil {
			return job, err
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
		resp.Body.Close()
		if rerr != nil {
			return job, rerr
		}
		switch {
		case resp.StatusCode == http.StatusOK:
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
	resp, err := m.probes.Get(m.URL + "/stats")
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
		if !m.up {
			m.live, m.abort = context.WithCancel(context.Background())
		}
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
		m.abort()
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

// markDown records an observed failure from the dispatch path, feeding the
// same counter the prober uses so a dead member is detected from either
// side.
func (m *memberState) markDown() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails++
	if m.fails >= healthFailures {
		m.up = false
		m.abort()
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
