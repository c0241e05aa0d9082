package fleet

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/obs/metrics"
	"repro/internal/service"
)

// Config sizes a coordinator.
type Config struct {
	// Members is the fleet: names must match the ring every member's peer
	// cache resolver was built over, or routing and cache locality disagree.
	Members []Member
	// QueueDepth bounds the coordinator's admission queue across tenants
	// (default 256); TenantQueueDepth bounds one tenant's share (0 = all).
	QueueDepth       int
	TenantQueueDepth int
	// TenantWeights sets weighted-fair dispatch shares (absent tenants
	// weigh 1), mirroring the per-member service queues.
	TenantWeights map[string]int
	// Dispatchers is the number of concurrent dispatch loops
	// (default 2 per member): each owns a job end to end — run it on the
	// routed member in one request, re-dispatch on member death, finish.
	Dispatchers int
	// HealthInterval is the member probe period (default 250ms).
	HealthInterval time.Duration
	// MaxAttempts bounds dispatch attempts per job across members
	// (default 3).
	MaxAttempts int
	// ResultFault, when set, mutates every result arriving from a member
	// before the coordinator records it — the fault-injection hook the
	// fleet crosscheck oracle uses to prove it would catch a member
	// returning corrupt results. Never set outside tests.
	ResultFault func(member string, res *service.JobResult)
}

// Job is the coordinator's record of one fleet submission. Snapshots are
// returned to callers; the live record is mutated only by the coordinator,
// under its board's lock.
type Job struct {
	ID   string          `json:"id"`
	Spec service.JobSpec `json:"spec"`
	// Key is the compile content address the job was routed by: jobs with
	// equal keys land on the same member's warm caches.
	Key   string        `json:"compile_key"`
	State service.State `json:"state"`
	// Member is the fleet member that ran (or is running) the job;
	// Attempts counts dispatches, so >1 means the job survived a member
	// death by re-dispatch.
	Member   string             `json:"member,omitempty"`
	Attempts int                `json:"attempts,omitempty"`
	Error    string             `json:"error,omitempty"`
	Result   *service.JobResult `json:"result,omitempty"`

	tried map[string]bool // members that failed this job already
}

// Stats is the coordinator's observability surface: its own routing
// counters plus a merged view of the member fleet (summed from the health
// loop's cached /stats snapshots).
type Stats struct {
	Submitted int64 `json:"submitted"`
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	// Requeued counts re-dispatches after a member rejection or death;
	// DuplicateCompletions counts finish attempts on already-finished jobs
	// (always 0 — the chaos test pins it).
	Requeued             int64 `json:"requeued"`
	DuplicateCompletions int64 `json:"duplicate_completions"`

	MembersUp int                    `json:"members_up"`
	Members   map[string]MemberStats `json:"members"`

	TenantQueued map[string]int64 `json:"tenant_queued,omitempty"`
	TenantDone   map[string]int64 `json:"tenant_done,omitempty"`

	// Fleet merges the member snapshots: cache and peer traffic, kernel
	// measurements, and simulated cycles summed across the fleet.
	Fleet FleetTotals `json:"fleet"`
}

// MemberStats is one member's entry in the coordinator's stats.
type MemberStats struct {
	URL        string `json:"url"`
	Up         bool   `json:"up"`
	Dispatched int64  `json:"dispatched"`
	// Service is the member's last /stats snapshot (nil before the first
	// successful health probe).
	Service *service.Stats `json:"service,omitempty"`
}

// FleetTotals sums member counters from their last health snapshots.
type FleetTotals struct {
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	ResultHits      int64 `json:"result_hits"`
	DiskHits        int64 `json:"disk_hits"`
	PeerHits        int64 `json:"peer_hits"`
	PeerMisses      int64 `json:"peer_misses"`
	PeerPuts        int64 `json:"peer_puts"`
	PeerErrors      int64 `json:"peer_errors"`
	KernelsMeasured int64 `json:"kernels_measured"`
	TotalCycles     int64 `json:"total_cycles"`
	JobsDone        int64 `json:"jobs_done"`
}

// Coordinator shards jobs across a fleet of ptsimd members by the
// consistent hash of each job's compile content address. Admission
// (weighted-fair, per-tenant bounds), lookup and the dispatcher pool are
// its service.Board, the same lifecycle a single ptsimd runs; on top it
// owns dispatch with bounded retry, health checking, re-dispatch of jobs
// stranded on dead members, and the fleet-merged stats/metrics surface.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	members map[string]*memberState
	order   []string // member names, sorted, for stable iteration

	jobs     *service.Board[Job]
	events   *service.Hub[Event]
	reg      *metrics.Registry
	requeued int64 // under the board's lock

	health   sync.WaitGroup
	stopped  chan struct{}
	stopOnce sync.Once
}

// NewCoordinator returns a stopped coordinator; call Start to launch the
// dispatchers and health loop.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("fleet: coordinator needs at least one member")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Dispatchers <= 0 {
		cfg.Dispatchers = 2 * len(cfg.Members)
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	names := make([]string, 0, len(cfg.Members))
	members := map[string]*memberState{}
	for _, m := range cfg.Members {
		if m.Name == "" || m.URL == "" {
			return nil, fmt.Errorf("fleet: member needs name and URL, got %+v", m)
		}
		if members[m.Name] != nil {
			return nil, fmt.Errorf("fleet: duplicate member name %q", m.Name)
		}
		members[m.Name] = newMemberState(m)
		names = append(names, m.Name)
	}
	sort.Strings(names)
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(names),
		members: members,
		order:   names,
		jobs:    service.NewBoard("f", cfg.QueueDepth, cfg.TenantQueueDepth, cfg.TenantWeights, snapshot),
		events:  service.NewHub[Event](),
		reg:     metrics.NewRegistry(),
		stopped: make(chan struct{}),
	}
	c.reg.Register(metrics.CollectorFunc(c.collect))
	return c, nil
}

// Start launches the dispatch loops and the health prober.
func (c *Coordinator) Start() {
	c.jobs.Start(c.cfg.Dispatchers, c.runJob)
	c.health.Add(1)
	go c.healthLoop()
}

// Close stops admission, drains the queue and in-flight jobs (the prober
// keeps marking dead members meanwhile, so a drain cannot hang on one),
// then stops the prober.
func (c *Coordinator) Close() {
	c.jobs.Close()
	c.stopOnce.Do(func() { close(c.stopped) })
	c.health.Wait()
	c.events.CloseAll()
}

func (c *Coordinator) healthLoop() {
	defer c.health.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopped:
			return
		case <-t.C:
			for _, name := range c.order {
				c.members[name].probe()
			}
		}
	}
}

// Submit admits one job. The spec is resolved immediately — both to reject
// invalid jobs at the door and to compute the routing key. Admission is the
// single-node service's: the same board, the same typed errors.
func (c *Coordinator) Submit(spec service.JobSpec) (Job, error) {
	key, err := service.ContentKey(spec)
	if err != nil {
		return Job{}, err
	}
	j, err := c.jobs.Submit(spec.Tenant, spec.Priority, func(id string) *Job {
		return &Job{ID: id, Spec: spec.Clone(), Key: key, State: service.StateQueued, tried: map[string]bool{}}
	})
	if err == nil {
		c.events.Publish(j.ID, Event{Kind: "state", State: service.StateQueued})
	}
	return j, err
}

// Get returns a snapshot of one job.
func (c *Coordinator) Get(id string) (Job, bool) { return c.jobs.Get(id) }

// Wait blocks until the job finishes and returns its final snapshot.
func (c *Coordinator) Wait(id string) (Job, error) { return c.jobs.Wait(id) }

// snapshot deep-copies the caller-visible fields of a live record.
func snapshot(j *Job) Job {
	cp := Job{
		ID: j.ID, Spec: j.Spec.Clone(), Key: j.Key, State: j.State,
		Member: j.Member, Attempts: j.Attempts, Error: j.Error,
	}
	if j.Result != nil {
		r := j.Result.Clone()
		cp.Result = &r
	}
	return cp
}

// runJob owns one job end to end: walk the key's ring preference order,
// run the job on the first live member not already tried, and on member
// death re-dispatch until MaxAttempts is exhausted. The prober runs until
// the board has drained, so Close waits out a dispatch on a member that
// dies meanwhile. A panic fails this job alone, as it does in a member's
// worker, instead of the coordinator and every queued job.
func (c *Coordinator) runJob(j *Job) {
	defer func() {
		if p := recover(); p != nil {
			c.finish(j, nil, &service.PanicError{Value: p, Stack: debug.Stack()})
		}
	}()
	for {
		m := c.pickMember(j)
		if m == nil {
			c.finish(j, nil, errors.New("fleet: no live member to run job"))
			return
		}
		var attempt int
		c.jobs.Locked(func() {
			j.Attempts++
			j.Member = m.Name
			j.State = service.StateRunning
			attempt = j.Attempts
		})
		m.noteDispatch()
		c.events.Publish(j.ID, Event{Kind: "route", State: service.StateRunning, Member: m.Name, Attempt: attempt})

		final, err := m.submit(j.Spec)
		switch {
		case err == nil:
			// Outside Finish, whose callback runs under the board's lock.
			if final.Result != nil && c.cfg.ResultFault != nil {
				c.cfg.ResultFault(m.Name, final.Result)
			}
			c.finish(j, &final, nil)
			return
		case isPermanent(err):
			c.finish(j, nil, err)
			return
		}
		m.markDown()
		if !c.requeue(j, m) {
			c.finish(j, nil, fmt.Errorf("fleet: job failed after %d attempts: %w", j.Attempts, err))
			return
		}
	}
}

// pickMember returns the first live member in the job's ring preference
// order that has not already failed it; when every preferred member was
// tried, any live member may take it (a re-dispatched job prefers warmth
// but settles for liveness).
func (c *Coordinator) pickMember(j *Job) *memberState {
	seq := c.ring.Sequence(j.Key)
	tried := map[string]bool{}
	c.jobs.Locked(func() {
		for k, v := range j.tried {
			tried[k] = v
		}
	})
	for _, name := range seq {
		if m := c.members[name]; !tried[name] && m.isUp() {
			return m
		}
	}
	for _, name := range seq {
		if m := c.members[name]; m.isUp() {
			return m
		}
	}
	return nil
}

// requeue records the failed member and reports whether the job has
// attempts left; the caller loops to re-dispatch (no queue round trip — the
// dispatcher already owns the job).
func (c *Coordinator) requeue(j *Job, failed *memberState) bool {
	var attempt int
	c.jobs.Locked(func() {
		j.tried[failed.Name] = true
		c.requeued++
		attempt = j.Attempts
	})
	if attempt >= c.cfg.MaxAttempts {
		return false
	}
	c.events.Publish(j.ID, Event{Kind: "route", State: service.StateQueued, Member: failed.Name, Attempt: attempt})
	return true
}

// finish records the job's terminal state exactly once (the board's
// finish-once guard: a second attempt — impossible by construction, one
// dispatcher owns a job, but pinned by the chaos test — only increments
// DuplicateCompletions).
func (c *Coordinator) finish(j *Job, final *service.Job, err error) {
	var ev Event
	c.jobs.Finish(j.ID, func() bool {
		ev = Event{Kind: "state", Member: j.Member, Attempt: j.Attempts}
		switch {
		case err != nil:
			j.State = service.StateFailed
			j.Error = err.Error()
		case final.State == service.StateFailed:
			j.State = service.StateFailed
			j.Error = final.Error
		default:
			j.State = service.StateDone
			if final.Result != nil {
				j.Result = final.Result
				ev.Cycles = final.Result.Cycles
			}
		}
		ev.State, ev.Error = j.State, j.Error
		return j.State == service.StateFailed
	}, func() {
		c.events.Publish(j.ID, ev)
		c.events.Finish(j.ID)
	})
}

// Stats returns one consistent snapshot of the coordinator plus the merged
// member view.
func (c *Coordinator) Stats() Stats {
	var requeued int64
	n := c.jobs.Counts(func() { requeued = c.requeued })
	st := Stats{
		Submitted: n.Submitted, Queued: n.Queued, Running: n.Running, Done: n.Done, Failed: n.Failed,
		Requeued: requeued, DuplicateCompletions: n.Duplicates,
		Members:      map[string]MemberStats{},
		TenantQueued: n.TenantQueued, TenantDone: n.TenantDone,
	}
	for i, ms := range c.MemberList() {
		st.Members[c.order[i]] = ms
		if ms.Up {
			st.MembersUp++
		}
		if svc := ms.Service; svc != nil {
			st.Fleet.CacheHits += svc.CacheHits
			st.Fleet.CacheMisses += svc.CacheMisses
			st.Fleet.ResultHits += svc.ResultHits
			st.Fleet.DiskHits += svc.DiskHits
			st.Fleet.PeerHits += svc.PeerHits
			st.Fleet.PeerMisses += svc.PeerMisses
			st.Fleet.PeerPuts += svc.PeerPuts
			st.Fleet.PeerErrors += svc.PeerErrors
			st.Fleet.KernelsMeasured += svc.KernelsMeasured
			st.Fleet.TotalCycles += svc.TotalCycles
			st.Fleet.JobsDone += svc.Done
		}
	}
	return st
}

// MemberList lists the configured fleet, in name order, with current health.
func (c *Coordinator) MemberList() []MemberStats {
	out := make([]MemberStats, 0, len(c.order))
	for _, name := range c.order {
		up, svc, dispatched := c.members[name].snapshot()
		out = append(out, MemberStats{URL: c.members[name].URL, Up: up, Dispatched: dispatched, Service: svc})
	}
	return out
}

// Metrics returns the coordinator's metrics registry (rendered by the
// /metrics endpoint).
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// collect renders the coordinator's counters plus the fleet-merged
// families from one Stats snapshot, so /metrics and /stats can never
// disagree mid-scrape.
func (c *Coordinator) collect(e *metrics.Emitter) {
	st := c.Stats()
	e.Counter("ptsimfleet_jobs_submitted_total", "Jobs admitted by the coordinator.", float64(st.Submitted))
	e.Counter("ptsimfleet_jobs_done_total", "Jobs finished successfully.", float64(st.Done))
	e.Counter("ptsimfleet_jobs_failed_total", "Jobs that failed terminally.", float64(st.Failed))
	e.Counter("ptsimfleet_jobs_requeued_total", "Re-dispatches after member rejection or death.", float64(st.Requeued))
	e.Counter("ptsimfleet_duplicate_completions_total", "Finish attempts on already-finished jobs (must stay 0).", float64(st.DuplicateCompletions))
	e.Gauge("ptsimfleet_jobs_queued", "Jobs waiting for a dispatcher.", float64(st.Queued))
	e.Gauge("ptsimfleet_jobs_running", "Jobs currently dispatched to members.", float64(st.Running))
	e.Gauge("ptsimfleet_members", "Configured fleet size.", float64(len(c.order)))
	e.Gauge("ptsimfleet_members_up", "Members passing health checks.", float64(st.MembersUp))

	up := make([]metrics.LabeledSample, 0, len(c.order))
	disp := make([]metrics.LabeledSample, 0, len(c.order))
	for _, name := range c.order {
		ms := st.Members[name]
		v := 0.0
		if ms.Up {
			v = 1
		}
		up = append(up, metrics.LabeledSample{Label: name, Value: v})
		disp = append(disp, metrics.LabeledSample{Label: name, Value: float64(ms.Dispatched)})
	}
	e.GaugeVec("ptsimfleet_member_up", "Per-member health (1 = passing probes).", "member", up)
	e.CounterVec("ptsimfleet_member_dispatched_total", "Jobs dispatched per member.", "member", disp)

	if len(st.TenantQueued) > 0 {
		e.GaugeVec("ptsimfleet_tenant_queued", "Queued jobs per tenant.", "tenant", metrics.TenantSamples(st.TenantQueued))
	}
	if len(st.TenantDone) > 0 {
		e.CounterVec("ptsimfleet_tenant_jobs_done_total", "Finished jobs per tenant.", "tenant", metrics.TenantSamples(st.TenantDone))
	}

	e.Counter("ptsimfleet_fleet_cache_hits_total", "Compile-cache hits summed across members.", float64(st.Fleet.CacheHits))
	e.Counter("ptsimfleet_fleet_cache_misses_total", "Compile-cache misses summed across members.", float64(st.Fleet.CacheMisses))
	e.Counter("ptsimfleet_fleet_result_hits_total", "Result-cache hits summed across members.", float64(st.Fleet.ResultHits))
	e.Counter("ptsimfleet_fleet_peer_hits_total", "Peer-cache hits summed across members.", float64(st.Fleet.PeerHits))
	e.Counter("ptsimfleet_fleet_peer_puts_total", "Peer-cache pushes summed across members.", float64(st.Fleet.PeerPuts))
	e.Counter("ptsimfleet_fleet_kernels_measured_total", "Kernel measurements summed across members.", float64(st.Fleet.KernelsMeasured))
	e.Counter("ptsimfleet_fleet_cycles_total", "Simulated cycles summed across members.", float64(st.Fleet.TotalCycles))
}
