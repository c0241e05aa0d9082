package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs/metrics"
	"repro/internal/sched"
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
	// (default 2 per member): each owns a job end to end — submit to the
	// routed member, poll, re-dispatch on member death, finish.
	Dispatchers int
	// PollInterval is the result-poll period (default 5ms); HealthInterval
	// the member probe period (default 250ms).
	PollInterval   time.Duration
	HealthInterval time.Duration
	// MaxAttempts bounds dispatch attempts per job across members
	// (default 3).
	MaxAttempts int
	// Timeout bounds each member HTTP round trip (default 10s).
	Timeout time.Duration
	// ResultFault, when set, mutates every result arriving from a member
	// before the coordinator records it — the fault-injection hook the
	// fleet crosscheck oracle uses to prove it would catch a member
	// returning corrupt results. Never set outside tests.
	ResultFault func(member string, res *service.JobResult)
}

// Job is the coordinator's record of one fleet submission. Snapshots are
// returned to callers; the live record is mutated only by the coordinator.
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

	tenant   string
	tried    map[string]bool // members that failed this job already
	finished bool
	done     chan struct{}
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
// consistent hash of each job's compile content address. It owns admission
// (weighted-fair, per-tenant bounds), dispatch with bounded retry, health
// checking, re-dispatch of jobs stranded on dead members, and the
// fleet-merged stats/metrics surface.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	members map[string]*memberState
	order   []string // member names, sorted, for stable iteration

	queue  *sched.FairQueue[*Job]
	events *service.Hub[Event]
	reg    *metrics.Registry

	mu         sync.Mutex
	byID       map[string]*Job
	nextID     int64
	closed     bool
	submitted  int64
	running    int64
	done       int64
	failed     int64
	requeued   int64
	dup        int64
	tenantDone map[string]int64

	wg       sync.WaitGroup
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
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5 * time.Millisecond
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
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
		members[m.Name] = newMemberState(m, cfg.Timeout)
		names = append(names, m.Name)
	}
	sort.Strings(names)
	weight := func(tenant string) int { return cfg.TenantWeights[tenant] }
	c := &Coordinator{
		cfg:        cfg,
		ring:       NewRing(names),
		members:    members,
		order:      names,
		queue:      sched.NewFairQueue[*Job](cfg.QueueDepth, cfg.TenantQueueDepth, weight),
		events:     service.NewHub[Event](),
		reg:        metrics.NewRegistry(),
		byID:       map[string]*Job{},
		tenantDone: map[string]int64{},
		stopped:    make(chan struct{}),
	}
	c.reg.Register(metrics.CollectorFunc(c.collect))
	return c, nil
}

// Start launches the dispatch loops and the health prober.
func (c *Coordinator) Start() {
	for i := 0; i < c.cfg.Dispatchers; i++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for {
				j, ok := c.queue.Pop()
				if !ok {
					return
				}
				c.runJob(j)
			}
		}()
	}
	c.wg.Add(1)
	go c.healthLoop()
}

// Close drains the queue, waits for in-flight jobs, and stops the prober.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.queue.Close()
	c.stopOnce.Do(func() { close(c.stopped) })
	c.wg.Wait()
	c.events.CloseAll()
}

func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
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
// invalid jobs at the door and to compute the routing key. Queue-full maps
// to the same typed overload errors the single-node service returns.
func (c *Coordinator) Submit(spec service.JobSpec) (Job, error) {
	key, err := service.ContentKey(spec)
	if err != nil {
		return Job{}, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Job{}, errors.New("fleet: coordinator is shut down")
	}
	c.nextID++
	j := &Job{
		ID:     fmt.Sprintf("f%d", c.nextID),
		Spec:   spec,
		Key:    key,
		State:  service.StateQueued,
		tenant: spec.Tenant,
		tried:  map[string]bool{},
		done:   make(chan struct{}),
	}
	c.byID[j.ID] = j
	c.submitted++
	c.mu.Unlock()

	if err := c.queue.Push(spec.Tenant, spec.Priority, j); err != nil {
		c.mu.Lock()
		delete(c.byID, j.ID)
		c.submitted--
		c.mu.Unlock()
		var qerr *sched.QueueOverloadError
		if errors.As(err, &qerr) && qerr.Tenant != "" {
			return Job{}, &service.TenantOverloadError{Tenant: qerr.Tenant, Capacity: qerr.Capacity}
		}
		if errors.As(err, &qerr) {
			return Job{}, &service.OverloadError{Capacity: qerr.Capacity}
		}
		return Job{}, err
	}
	c.events.Publish(j.ID, Event{Kind: "state", State: service.StateQueued})
	return c.snapshot(j), nil
}

// Get returns a snapshot of one job.
func (c *Coordinator) Get(id string) (Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.byID[id]
	if !ok {
		return Job{}, false
	}
	return c.snapshotLocked(j), true
}

// Wait blocks until the job finishes and returns its final snapshot.
func (c *Coordinator) Wait(id string) (Job, error) {
	c.mu.Lock()
	j, ok := c.byID[id]
	c.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("fleet: unknown job %s", id)
	}
	<-j.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked(j), nil
}

func (c *Coordinator) snapshot(j *Job) Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked(j)
}

// snapshotLocked copies the caller-visible fields under c.mu.
func (c *Coordinator) snapshotLocked(j *Job) Job {
	cp := Job{
		ID: j.ID, Spec: j.Spec, Key: j.Key, State: j.State,
		Member: j.Member, Attempts: j.Attempts, Error: j.Error,
	}
	if j.Result != nil {
		r := *j.Result
		cp.Result = &r
	}
	return cp
}

// runJob owns one job end to end: walk the key's ring preference order,
// submit to the first live member not already tried, poll for the result,
// and on member death re-dispatch until MaxAttempts is exhausted.
func (c *Coordinator) runJob(j *Job) {
	c.mu.Lock()
	c.running++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.running--
		c.mu.Unlock()
	}()
	for {
		m := c.pickMember(j)
		if m == nil {
			c.finish(j, nil, errors.New("fleet: no live member to run job"))
			return
		}
		c.mu.Lock()
		j.Attempts++
		j.Member = m.Name
		j.State = service.StateRunning
		attempt := j.Attempts
		c.mu.Unlock()
		m.noteDispatch()
		c.events.Publish(j.ID, Event{Kind: "route", State: service.StateRunning, Member: m.Name, Attempt: attempt})

		remote, err := m.submit(j.Spec)
		if err != nil {
			if isPermanent(err) {
				c.finish(j, nil, err)
				return
			}
			m.markDown()
			if !c.requeue(j, m) {
				c.finish(j, nil, fmt.Errorf("fleet: job failed after %d attempts: %w", j.Attempts, err))
				return
			}
			continue
		}
		final, err := c.pollResult(m, remote.ID)
		if err != nil {
			m.markDown()
			if !c.requeue(j, m) {
				c.finish(j, nil, fmt.Errorf("fleet: job failed after %d attempts: %w", j.Attempts, err))
				return
			}
			continue
		}
		c.finish(j, final, nil)
		return
	}
}

// pickMember returns the first live member in the job's ring preference
// order that has not already failed it; when every preferred member was
// tried, any live member may take it (a re-dispatched job prefers warmth
// but settles for liveness).
func (c *Coordinator) pickMember(j *Job) *memberState {
	seq := c.ring.Sequence(j.Key)
	c.mu.Lock()
	tried := make(map[string]bool, len(j.tried))
	for k, v := range j.tried {
		tried[k] = v
	}
	c.mu.Unlock()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	j.tried[failed.Name] = true
	c.requeued++
	if j.Attempts >= c.cfg.MaxAttempts {
		return false
	}
	c.events.Publish(j.ID, Event{Kind: "route", State: service.StateQueued, Member: failed.Name, Attempt: j.Attempts})
	return true
}

// pollResult polls the member for the remote job until it reaches a
// terminal state. Transport errors are tolerated up to healthFailures in a
// row (a blip), then reported; a member marked down by the health loop
// aborts the poll immediately so stranded jobs re-dispatch fast.
func (c *Coordinator) pollResult(m *memberState, remoteID string) (*service.Job, error) {
	errs := 0
	for {
		job, err := m.getJob(remoteID)
		switch {
		case err != nil:
			errs++
			if errs >= healthFailures {
				return nil, err
			}
		case job.State.Terminal():
			return &job, nil
		default:
			errs = 0
		}
		if !m.isUp() {
			return nil, fmt.Errorf("fleet: member %s went down mid-job", m.Name)
		}
		select {
		case <-c.stopped:
			return nil, errors.New("fleet: coordinator shutting down")
		case <-time.After(c.cfg.PollInterval):
		}
	}
}

// finish records the job's terminal state exactly once. A second finish
// attempt (impossible by construction — one dispatcher owns a job — but
// pinned by the chaos test) only increments DuplicateCompletions.
func (c *Coordinator) finish(j *Job, final *service.Job, err error) {
	c.mu.Lock()
	if j.finished {
		c.dup++
		c.mu.Unlock()
		return
	}
	j.finished = true
	ev := Event{Kind: "state", Member: j.Member, Attempt: j.Attempts}
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
			r := *final.Result
			if c.cfg.ResultFault != nil {
				c.cfg.ResultFault(j.Member, &r)
			}
			j.Result = &r
			ev.Cycles = r.Cycles
		}
	}
	if j.State == service.StateFailed {
		c.failed++
	} else {
		c.done++
	}
	c.tenantDone[j.tenant]++
	ev.State = j.State
	ev.Error = j.Error
	c.mu.Unlock()
	c.events.Publish(j.ID, ev)
	c.events.Finish(j.ID)
	close(j.done)
}

// Stats returns one consistent snapshot of the coordinator plus the merged
// member view.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	st := Stats{
		Submitted:            c.submitted,
		Running:              c.running,
		Done:                 c.done,
		Failed:               c.failed,
		Requeued:             c.requeued,
		DuplicateCompletions: c.dup,
		Members:              map[string]MemberStats{},
		TenantDone:           map[string]int64{},
	}
	for t, n := range c.tenantDone {
		st.TenantDone[t] = n
	}
	c.mu.Unlock()
	st.Queued = int64(c.queue.Len())
	depths := c.queue.Depths()
	if len(depths) > 0 {
		st.TenantQueued = map[string]int64{}
		for t, n := range depths {
			st.TenantQueued[t] = int64(n)
		}
	}
	for _, name := range c.order {
		up, svc, dispatched := c.members[name].snapshot()
		if up {
			st.MembersUp++
		}
		st.Members[name] = MemberStats{URL: c.members[name].URL, Up: up, Dispatched: dispatched, Service: svc}
		if svc != nil {
			st.Fleet.CacheHits += svc.CacheHits
			st.Fleet.CacheMisses += svc.CacheMisses
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

// Members lists the configured fleet with current health.
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
	e.Counter("ptsimfleet_fleet_peer_hits_total", "Peer-cache hits summed across members.", float64(st.Fleet.PeerHits))
	e.Counter("ptsimfleet_fleet_peer_puts_total", "Peer-cache pushes summed across members.", float64(st.Fleet.PeerPuts))
	e.Counter("ptsimfleet_fleet_kernels_measured_total", "Kernel measurements summed across members.", float64(st.Fleet.KernelsMeasured))
	e.Counter("ptsimfleet_fleet_cycles_total", "Simulated cycles summed across members.", float64(st.Fleet.TotalCycles))
}
