package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// pollInterval is how often a client asks for a job's state, the period a
// sweep script's wait loop would use.
const pollInterval = 2 * time.Millisecond

// wireJob is the part of a job snapshot the clients read, from one ptsimd
// or from the fleet coordinator (which adds member and attempts and has no
// timestamps).
type wireJob struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Error     string    `json:"error"`
	Member    string    `json:"member"`
	Attempts  int       `json:"attempts"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Result    *struct {
		Cycles    int64   `json:"cycles"`
		WallMs    float64 `json:"wall_ms"`
		CompileMs float64 `json:"compile_ms"`
		CacheHit  bool    `json:"cache_hit"`
	} `json:"result"`
}

// wireStats is the part of GET /stats the layer metrics use. A single
// ptsimd fills the top-level cache counters; the coordinator fills
// requeued, members and fleet.
type wireStats struct {
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	KernelsMeasured int64 `json:"kernels_measured"`
	Requeued        int64 `json:"requeued"`
	Members         map[string]struct {
		Dispatched int64 `json:"dispatched"`
	} `json:"members"`
	Fleet struct {
		CacheHits       int64 `json:"cache_hits"`
		CacheMisses     int64 `json:"cache_misses"`
		KernelsMeasured int64 `json:"kernels_measured"`
		PeerHits        int64 `json:"peer_hits"`
		PeerMisses      int64 `json:"peer_misses"`
	} `json:"fleet"`
}

// stack is a running daemon under test, one ptsimd or a local fleet, behind
// a loopback listener.
type stack struct {
	url   string
	srv   *http.Server
	done  chan struct{} // closed when Serve has returned
	close func()        // stops what is behind the handler
	cl    *http.Client
}

func clients() int { return runtime.GOMAXPROCS(0) }

// bootStack starts what ptsimd (or ptsimfleet with three one-worker
// members) serves, in this process.
func bootStack(isFleet bool) (*stack, error) {
	var handler http.Handler
	var closeBackend func()
	if isFleet {
		l, err := fleet.StartLocal(fleet.LocalOptions{N: 3, Workers: 1})
		if err != nil {
			return nil, err
		}
		handler, closeBackend = fleet.NewHandler(l.Coord), l.Close
	} else {
		svc := service.New(service.Config{Workers: clients()})
		svc.Start()
		handler, closeBackend = service.NewHandler(svc), svc.Close
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeBackend()
		return nil, err
	}
	s := &stack{
		url:   "http://" + ln.Addr().String(),
		srv:   &http.Server{Handler: handler},
		done:  make(chan struct{}),
		close: closeBackend,
		cl:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}, Timeout: 60 * time.Second},
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

// shutdown stops the server and everything behind it, and returns once
// their goroutines have ended.
func (s *stack) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.done
	s.cl.CloseIdleConnections()
	s.close()
}

func (s *stack) getJSON(path string, v any) error {
	resp, err := s.cl.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	spec       jobSpec
	start, end time.Time
	polls      int
	job        wireJob
	err        error
}

// runJob submits one spec and polls until it is done or failed: the closed
// loop a sweep script runs. A refusal (429) or a failed job is an error.
func (s *stack) runJob(spec jobSpec) jobRecord {
	rec := jobRecord{spec: spec, start: time.Now()}
	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := s.cl.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rec.err = err
		return rec
	}
	if resp.StatusCode != http.StatusAccepted {
		rec.err = fmt.Errorf("POST /jobs %s: %d %s", spec.label(), resp.StatusCode, bytes.TrimSpace(reply))
		return rec
	}
	if err := json.Unmarshal(reply, &rec.job); err != nil {
		rec.err = err
		return rec
	}
	id := rec.job.ID
	for rec.job.State != "done" && rec.job.State != "failed" {
		time.Sleep(pollInterval)
		rec.job = wireJob{}
		if err := s.getJSON("/jobs/"+id, &rec.job); err != nil {
			rec.err = err
			return rec
		}
		rec.polls++
	}
	rec.end = time.Now()
	if rec.job.State == "failed" || rec.job.Result == nil {
		rec.err = fmt.Errorf("job %s (%s) failed: %s", id, spec.label(), rec.job.Error)
	}
	return rec
}

// drain runs list through n closed-loop clients. A client takes the next
// job only when its previous one has finished, and no job is taken after
// the deadline (a zero deadline means the whole list).
func (s *stack) drain(list []streamJob, n int, deadline time.Time) []jobRecord {
	var next atomic.Int64
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				rec := s.runJob(list[i].spec)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// runJobs is svc.mix-closed and fleet.mix-closed. Set-up is booting the
// stack and one pass over the repeated pool, so that the timed section
// starts with those twenty specs compiled, as a daemon that has been up for
// a while would. The op is one job, submit to done as the client sees it.
func runJobs(rc *runCtx, isFleet bool) (*outcome, error) {
	p := rc.prof
	o := &outcome{layer: map[string]float64{}}
	nClients := clients()

	if rc.want.pinning {
		if isFleet {
			// The fleet is checked against the single daemon's pins: a
			// job's result must not depend on where it ran.
			return o, nil
		}
		st, err := bootStack(isFleet)
		if err != nil {
			return nil, err
		}
		defer st.shutdown()
		var all []streamJob
		for _, s := range p.allJobSpecs() {
			all = append(all, streamJob{spec: s})
		}
		for _, rec := range st.drain(all, nClients, time.Time{}) {
			checkJob(rc, o, rec)
		}
		return o, nil
	}

	var warm []streamJob
	for _, s := range p.warmPool() {
		warm = append(warm, streamJob{spec: s})
	}
	// Boot and warm the stack heavySetupReps times; the last one is measured on.
	// Shutting the earlier ones down is not part of the set-up time.
	var st *stack
	for i := 0; i < p.heavySetupReps; i++ {
		if st != nil {
			st.shutdown()
		}
		err := o.setupLoop(1, func(int) error {
			var err error
			if st, err = bootStack(isFleet); err != nil {
				return err
			}
			for _, rec := range st.drain(warm, nClients, time.Time{}) {
				checkJob(rc, o, rec)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	defer st.shutdown()

	// 64 blocks is several times what the clients get through in a minute.
	list := jobList(p, rc.seed, 64)
	runtime.GC() // the timed section starts from a collected heap, like every op of the other workloads
	rss := startRSSSampler()
	start := time.Now()
	recs := st.drain(list, nClients, start.Add(time.Duration(rc.seconds*float64(time.Second))))
	o.timedS = time.Since(start).Seconds()
	o.rssMB = rss.finish()
	for _, rec := range recs {
		if checkJob(rc, o, rec) {
			o.opMs = append(o.opMs, float64(rec.end.Sub(rec.start))/1e6)
		}
	}
	if rc.traced() {
		if err := jobLayers(rc, o, st, recs, isFleet); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkJob counts one job and compares its cycles with the pinned value.
func checkJob(rc *runCtx, o *outcome, rec jobRecord) bool {
	o.attempted++
	if rec.err != nil {
		o.fail("%v", rec.err)
		return false
	}
	before := o.failed
	check(rc.want, o, rc.want.JobCycles, "job", rec.spec.label(), rec.job.Result.Cycles)
	return o.failed == before
}

// jobLayers turns the job records of the timed section into spans and the
// service and fleet layer metrics. All of it comes from what the daemon
// already reports: the timestamps and host times in each job snapshot and
// the counters of GET /stats.
func jobLayers(rc *runCtx, o *outcome, st *stack, recs []jobRecord, isFleet bool) error {
	var queueMs, runMs, compileMs, simMs, httpMs, coordMs, polls, attempts []float64
	for i, rec := range recs {
		if rec.err != nil {
			continue
		}
		req := fmt.Sprintf("job-%d", i)
		j := rec.job
		latency := rec.end.Sub(rec.start)
		root := rc.tr.add(0, "client.job", req, rec.start, rec.end)
		compile := time.Duration(j.Result.CompileMs * float64(time.Millisecond))
		simWall := time.Duration(j.Result.WallMs * float64(time.Millisecond))
		compileMs = append(compileMs, j.Result.CompileMs)
		simMs = append(simMs, j.Result.WallMs)
		polls = append(polls, float64(rec.polls))
		if isFleet {
			// The coordinator's snapshot has no timestamps; the member's
			// job time is what the member reported for compile and run.
			member := compile + simWall
			mid := rc.tr.addAgg(root, "fleet.member_job", req, 0, member)
			rc.tr.addAgg(mid, "service.compile", req, 0, compile)
			rc.tr.addAgg(mid, "service.sim", req, compile, simWall)
			coordMs = append(coordMs, float64(latency-member)/1e6)
			attempts = append(attempts, float64(j.Attempts))
			continue
		}
		rc.tr.add(root, "service.queue_wait", req, j.Submitted, j.Started)
		rid := rc.tr.add(root, "service.run", req, j.Started, j.Finished)
		rc.tr.addAgg(rid, "service.compile", req, 0, compile)
		rc.tr.addAgg(rid, "service.sim", req, compile, simWall)
		queueMs = append(queueMs, float64(j.Started.Sub(j.Submitted))/1e6)
		runMs = append(runMs, float64(j.Finished.Sub(j.Started))/1e6)
		httpMs = append(httpMs, float64(latency-j.Finished.Sub(j.Submitted))/1e6)
	}
	l := o.layer
	l["service.compile_ms"] = mean(compileMs) // the median is 0: five jobs in six hit the cache
	l["service.sim_wall_ms"] = median(simMs)
	l["service.polls_per_job"] = mean(polls)

	var stats wireStats
	if err := st.getJSON("/stats", &stats); err != nil {
		return err
	}
	if !isFleet {
		l["service.queue_wait_ms"] = median(queueMs)
		l["service.run_ms"] = median(runMs)
		l["service.http_overhead_ms"] = median(httpMs)
		l["service.cache_hit_ratio"] = 100 * float64(stats.CacheHits) / float64(max(stats.CacheHits+stats.CacheMisses, 1))
		l["service.kernels_measured"] = float64(stats.KernelsMeasured)
		return nil
	}
	// The fleet totals come from the coordinator's health probe of each
	// member (every 250 ms), so they can trail the last few jobs.
	f := stats.Fleet
	l["service.cache_hit_ratio"] = 100 * float64(f.CacheHits) / float64(max(f.CacheHits+f.CacheMisses, 1))
	l["service.kernels_measured"] = float64(f.KernelsMeasured)
	l["fleet.coord_overhead_ms"] = median(coordMs)
	l["fleet.attempts_per_job"] = mean(attempts)
	l["fleet.requeued"] = float64(stats.Requeued)
	l["fleet.peer_hits"] = float64(f.PeerHits)
	l["fleet.peer_misses"] = float64(f.PeerMisses)
	var most, sum float64
	for _, m := range stats.Members {
		d := float64(m.Dispatched)
		sum += d
		most = max(most, d)
	}
	if sum > 0 {
		l["fleet.dispatch_imbalance"] = most / (sum / float64(len(stats.Members)))
	}
	return nil
}
