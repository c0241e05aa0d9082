package service

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/npu"
	"repro/internal/obs"
)

// countRuns wraps the service's engine run and counts the simulations.
func countRuns(s *Service) *atomic.Int64 {
	var n atomic.Int64
	run := s.engineRun
	s.engineRun = func(r Resolved, probe obs.Probe) (JobResult, error) {
		n.Add(1)
		return run(r, probe)
	}
	return &n
}

// N concurrent identical submissions simulate once. The repeats are result
// hits without host time, and the stats account each of them — cycles and
// energy — exactly as a run.
func TestResultCacheSimulatesOnce(t *testing.T) {
	for name, spec := range map[string]JobSpec{
		"single": {Model: "gemm", N: 64, NPU: "small"},
		"pkg2":   {Model: "decoder-tiny", Ctx: 8, NPU: "small", Topology: "pkg2", Parallel: "tensor"},
	} {
		t.Run(name, func(t *testing.T) {
			svc := New(Config{Workers: 4, QueueDepth: 16})
			runs := countRuns(svc)
			const n = 6
			ids := make([]string, n)
			for i := range ids {
				spec := spec
				spec.Tenant = []string{"a", "b"}[i%2] // tenants share results
				j, err := svc.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = j.ID
			}
			svc.Start()
			defer svc.Close()
			var miss *JobResult
			for _, id := range ids {
				j, err := svc.Wait(id)
				if err != nil || j.State != StateDone {
					t.Fatalf("job %s: %v %s %q", id, err, j.State, j.Error)
				}
				if !j.Result.ResultHit {
					if miss != nil {
						t.Fatal("two jobs missed the result cache")
					}
					miss = j.Result
				}
			}
			if runs.Load() != 1 || miss == nil {
				t.Fatalf("%d simulations for %d identical jobs, want 1", runs.Load(), n)
			}
			var wantJ float64
			var wantPkg []float64
			for _, id := range ids {
				j, _ := svc.Get(id)
				res := j.Result
				if res.ResultHit && (res.WallMs != 0 || res.CompileMs != 0 || !res.CacheHit || res.Report.WallMs != 0) {
					t.Fatalf("hit carries host time or no cache flag: %+v", res)
				}
				if !reflect.DeepEqual(res.Canonical(), miss.Canonical()) {
					t.Fatalf("hit differs from the run:\n%+v\n%+v", res.Canonical(), miss.Canonical())
				}
				for _, u := range res.Report.Energy.UnitMilliJ() {
					wantJ += u.MJ / 1e3
				}
				if topo := res.Report.Topology; topo != nil {
					wantPkg = append(wantPkg, topo.PerPackage[0].EnergyMilliJ/1e3)
				}
			}
			st := svc.Stats()
			if st.ResultMisses != 1 || st.ResultHits != n-1 || st.TotalCycles != n*miss.Cycles {
				t.Fatalf("stats %+v: want 1 result miss, %d hits, %d cycles", st, n-1, n*miss.Cycles)
			}
			// The rate is the one simulation's: hits add cycles but no host
			// time, so counting them would inflate it n-fold.
			wall := float64(int64(miss.WallMs*1e6)) / 1e9
			if want := float64(miss.Cycles) / wall; wall > 0 && st.CyclesPerSecond != want {
				t.Fatalf("cycles/s %g, want %g (the simulated job's rate)", st.CyclesPerSecond, want)
			}
			var gotJ float64
			for _, u := range []string{"sa", "vector", "spad", "dram", "noc", "link", "static"} {
				gotJ += st.EnergyJoules[u]
			}
			if d := gotJ - wantJ; d > 1e-12*wantJ || d < -1e-12*wantJ || wantJ == 0 {
				t.Fatalf("energy %g J, want %g J (every hit accounted as a run)", gotJ, wantJ)
			}
			if len(wantPkg) > 0 {
				var sum float64
				for _, j := range wantPkg {
					sum += j
				}
				if got := st.PackageEnergyJoules["0"]; got != sum {
					t.Fatalf("package 0 energy %g J, want %g J", got, sum)
				}
			}
		})
	}
}

// Errors are not cached: a spec that deadlocks fails each time it is
// submitted, and simulates each time.
func TestResultCacheKeepsNoErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	runs := countRuns(svc)
	svc.Start()
	defer svc.Close()
	for i := 1; i <= 2; i++ {
		j, err := svc.Submit(JobSpec{Model: "gemm", N: 64, NPU: "small", MaxCycles: 3})
		if err != nil {
			t.Fatal(err)
		}
		fin, _ := svc.Wait(j.ID)
		if fin.State != StateFailed || fin.ErrorKind != "deadlock" {
			t.Fatalf("submission %d: state %s kind %q", i, fin.State, fin.ErrorKind)
		}
		if runs.Load() != int64(i) {
			t.Fatalf("submission %d: %d simulations, want %d", i, runs.Load(), i)
		}
	}
	if st := svc.Stats(); st.ResultHits != 0 || st.ResultMisses != 2 {
		t.Fatalf("result hits %d misses %d, want 0 and 2", st.ResultHits, st.ResultMisses)
	}
}

// The result-cache key is the hash of the whole resolved spec. Every
// JobSpec field is classified: a field that changes what is simulated must
// change the key, and tenant and priority must not. A new field fails this
// test until it is classified here.
func TestResultKeyCoversJobSpec(t *testing.T) {
	off := false
	gemm := JobSpec{Model: "gemm", N: 64}
	dec := JobSpec{Model: "decoder-tiny", Ctx: 8, NPU: "small"}
	with := func(base JobSpec, f func(*JobSpec)) [2]JobSpec {
		changed := base
		f(&changed)
		return [2]JobSpec{base, changed}
	}
	affects := map[string][2]JobSpec{
		"Model":     {gemm, {Model: "mlp"}},
		"Batch":     with(JobSpec{Model: "mlp", Batch: 1}, func(s *JobSpec) { s.Batch = 2 }),
		"N":         with(gemm, func(s *JobSpec) { s.N = 72 }),
		"Seq":       with(JobSpec{Model: "bert-base", Seq: 128}, func(s *JobSpec) { s.Seq = 64 }),
		"Ctx":       with(dec, func(s *JobSpec) { s.Ctx = 16 }),
		"Prefill":   with(dec, func(s *JobSpec) { s.Prefill = true }),
		"Topology":  with(JobSpec{Model: "gemm", N: 64, Topology: "pkg2", Parallel: "data"}, func(s *JobSpec) { s.Topology = "mesh2x2" }),
		"Parallel":  with(JobSpec{Model: "decoder-tiny", Ctx: 8, Topology: "pkg2", Parallel: "data"}, func(s *JobSpec) { s.Parallel = "tensor" }),
		"NPU":       with(gemm, func(s *JobSpec) { s.NPU = "small" }),
		"Net":       with(gemm, func(s *JobSpec) { s.Net = "cn" }),
		"DMA":       with(gemm, func(s *JobSpec) { s.DMA = "fine" }),
		"MaxMt":     with(gemm, func(s *JobSpec) { s.MaxMt = 64 }),
		"Fusion":    with(gemm, func(s *JobSpec) { s.Fusion = &off }),
		"ConvOpt":   with(gemm, func(s *JobSpec) { s.ConvOpt = &off }),
		"MaxCycles": with(gemm, func(s *JobSpec) { s.MaxCycles = 12345 }),
		"Serve":     with(dec, func(s *JobSpec) { s.Serve = &ServeSpec{} }),
	}
	ignored := map[string][2]JobSpec{
		"Tenant":   with(gemm, func(s *JobSpec) { s.Tenant = "other" }),
		"Priority": with(gemm, func(s *JobSpec) { s.Priority = 3 }),
	}
	svc := New(Config{})
	key := func(spec JobSpec) string {
		r, err := svc.resolve(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		return resultKey(r)
	}
	typ := reflect.TypeOf(JobSpec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if pair, ok := affects[name]; ok {
			if key(pair[0]) == key(pair[1]) {
				t.Errorf("JobSpec.%s changes the run but not the result key", name)
			}
		} else if pair, ok := ignored[name]; ok {
			if key(pair[0]) != key(pair[1]) {
				t.Errorf("JobSpec.%s does not change the run but changes the result key", name)
			}
		} else {
			t.Errorf("JobSpec.%s is not classified as result-affecting or not", name)
		}
	}
	// The key holds the effective cycle limit, not the spelling of it.
	def := gemm
	def.MaxCycles = 20_000_000_000
	if key(gemm) != key(def) {
		t.Error("max_cycles left out and max_cycles set to the default are different keys")
	}
}

// A caller that mutates a returned result, its Report included, changes
// neither the cached result nor what the next hit returns.
func TestResultHitIsACopy(t *testing.T) {
	svc := New(Config{})
	spec := JobSpec{Model: "gemm", N: 64, NPU: "small"}
	first, err := svc.Simulate(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Canonical()
	rep := first.Report.Clone()
	rep.WallMs = 0
	want.Report = &rep
	for i := 0; i < 2; i++ {
		res, err := svc.Simulate(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ResultHit || !reflect.DeepEqual(res.Canonical(), want) {
			t.Fatalf("hit %d: %+v, want %+v", i, res.Canonical(), want)
		}
		for _, r := range []JobResult{first, res} {
			r.Report.Cycles++
			r.Report.Cores[0].SAUtil = -1
			r.Report.Jobs[0].End = -1
			r.Report.Mem.Reads = -1
			r.Report.Activity.Cycles = -1
			r.Report.Energy.TotalMilliJ = -1
		}
	}
}

// After more distinct specs than either table keeps, both tables are
// within their bounds, an evicted result is simulated again to the same
// bits, and recompiling an evicted artifact measures no kernel.
func TestResultAndArtifactBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates more specs than the result cache keeps")
	}
	svc := New(Config{})
	runs := countRuns(svc)
	var sizes []int
	for n := 8; n <= 80; n += 8 {
		sizes = append(sizes, n)
	}
	if len(sizes) <= artifactEntries {
		t.Fatalf("%d shapes do not exceed the %d-artifact bound", len(sizes), artifactEntries)
	}
	perSize := resultEntries/len(sizes) + 2
	base := map[int]JobResult{}
	for _, n := range sizes {
		for i := 0; i < perSize; i++ {
			// Distinct limits are distinct keys over one compile, none of
			// them low enough to end a run.
			res, err := svc.Simulate(JobSpec{Model: "gemm", N: n, NPU: "small", MaxCycles: int64(1e9 + i)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.ResultHit {
				t.Fatalf("gemm %d limit %d: a distinct spec hit", n, i)
			}
			if i == 0 {
				base[n] = res.Canonical()
			} else if !reflect.DeepEqual(res.Canonical(), base[n]) {
				t.Fatalf("gemm %d limit %d differs from limit 0", n, i)
			}
		}
	}
	measured := svc.Stats().KernelsMeasured
	// The first spec is evicted from both tables by now.
	n := sizes[0]
	res, err := svc.Simulate(JobSpec{Model: "gemm", N: n, NPU: "small", MaxCycles: 1e9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultHit || res.CacheHit || !reflect.DeepEqual(res.Canonical(), base[n]) {
		t.Fatalf("gemm %d after eviction: hits %v/%v, %+v, want a re-run equal to %+v",
			n, res.ResultHit, res.CacheHit, res.Canonical(), base[n])
	}
	st := svc.Stats()
	if st.KernelsMeasured != measured {
		t.Fatalf("recompiles after eviction measured %d kernels", st.KernelsMeasured-measured)
	}
	if want := int64(len(sizes)*perSize + 1); runs.Load() != want || st.ResultMisses != want {
		t.Fatalf("%d simulations, %d result misses; want %d", runs.Load(), st.ResultMisses, want)
	}
	_, _, _, results := svc.results.stats()
	_, _, _, arts := svc.cache.arts.stats()
	if results > resultEntries || arts > artifactEntries || st.ResultEvictions == 0 || st.CacheEvictions == 0 {
		t.Fatalf("tables hold %d results and %d artifacts (bounds %d, %d), evictions %d and %d",
			results, arts, resultEntries, artifactEntries, st.ResultEvictions, st.CacheEvictions)
	}
}

// A serving spec joins the result cache like any other: the repeat is a
// hit that simulates nothing, computes what the run computed, and books
// the same requests, tokens and energy into the stats.
func TestServeJobIsResultCached(t *testing.T) {
	svc := New(Config{Workers: 1})
	runs := countRuns(svc)
	svc.Start()
	defer svc.Close()
	spec := JobSpec{Model: "decoder-tiny", NPU: "small",
		Serve: &ServeSpec{Requests: 2, Prompt: 4, Output: 4, MaxBatch: 2, KVBlock: 16, Seed: 3}}
	var results []JobResult
	var stats []Stats
	for i := 0; i < 2; i++ {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := svc.Wait(j.ID)
		if err != nil || fin.State != StateDone {
			t.Fatalf("serve job %d: %v %s %q", i, err, fin.State, fin.Error)
		}
		results = append(results, *fin.Result)
		stats = append(stats, svc.Stats())
	}
	run, hit := results[0], results[1]
	if run.ResultHit || !hit.ResultHit || hit.WallMs != 0 || hit.ServeReport.WallMs != 0 {
		t.Fatalf("result_hit %v then %v, hit wall %g/%g ms: want a run, then a hit without host time",
			run.ResultHit, hit.ResultHit, hit.WallMs, hit.ServeReport.WallMs)
	}
	if !reflect.DeepEqual(run.Canonical(), hit.Canonical()) {
		t.Fatalf("the hit differs from the run:\nrun: %+v\nhit: %+v", *run.ServeReport, *hit.ServeReport)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d simulations, want 1", n)
	}
	first, second := stats[0], stats[1]
	if first.ServeRequests != 2 || second.ServeRequests != 2*first.ServeRequests ||
		second.ServeTokens != 2*first.ServeTokens || first.ServeTokens != run.ServeReport.TokensOut {
		t.Fatalf("serve requests %d then %d, tokens %d then %d: the hit must book what the run booked",
			first.ServeRequests, second.ServeRequests, first.ServeTokens, second.ServeTokens)
	}
	if len(first.EnergyJoules) == 0 {
		t.Fatal("the serving run booked no energy")
	}
	for unit, j := range first.EnergyJoules {
		if got := second.EnergyJoules[unit]; math.Abs(got-2*j) > 1e-12*math.Abs(j) {
			t.Fatalf("energy %s: %g J after the run, %g after the hit; want twice", unit, j, got)
		}
	}
	if second.ResultMisses != 1 || second.ResultHits != 1 {
		t.Fatalf("result misses %d hits %d, want 1 and 1", second.ResultMisses, second.ResultHits)
	}
}

// A spec the compiler rejects fails its job with the compiler's error, and
// the service runs the next job. A training step whose batch exceeds the
// small core's VLEN must be a compile error: a panic inside a codegen
// worker is beyond Service.run's recover and would end the process.
func TestUncompilableSpecFailsOnlyItsJob(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.Start()
	defer svc.Close()
	wait := func(spec JobSpec) Job {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := svc.Wait(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		return fin
	}
	bad := wait(JobSpec{Model: "mlp-train", Batch: 64, NPU: "small"})
	if bad.State != StateFailed || !strings.Contains(bad.Error, "exceeds VLEN") {
		t.Fatalf("mlp-train batch 64 on small: state %s error %q, want a VLEN error", bad.State, bad.Error)
	}
	if good := wait(JobSpec{Model: "gemm", N: 64, NPU: "small"}); good.State != StateDone {
		t.Fatalf("the next job: state %s error %q", good.State, good.Error)
	}
}

// A kernel measurement that panics in the compiler's worker pool, outside
// Service.run's recover, fails that job alone with the panic in its error;
// the next job on the same service measures the kernel and completes.
func TestMeasurePanicFailsOnlyItsJob(t *testing.T) {
	svc := New(Config{Workers: 1})
	var panicked atomic.Bool
	svc.cache.SetCompilerHook(func(c *compiler.Compiler) {
		c.Measurer = panicOnce{&panicked}
	})
	svc.Start()
	defer svc.Close()
	spec := JobSpec{Model: "gemm", N: 64, NPU: "small"}
	wait := func() Job {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := svc.Wait(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		return fin
	}
	if bad := wait(); bad.State != StateFailed || !strings.Contains(bad.Error, "injected measurer fault") {
		t.Fatalf("job whose measurement panicked: state %s error %q", bad.State, bad.Error)
	}
	if good := wait(); good.State != StateDone {
		t.Fatalf("the next job: state %s error %q", good.State, good.Error)
	}
}

// panicOnce is a compiler.Measurer whose first measurement panics.
type panicOnce struct{ done *atomic.Bool }

func (m panicOnce) Measure(cfg npu.CoreConfig, p *isa.Program) (int64, error) {
	if m.done.CompareAndSwap(false, true) {
		panic("injected measurer fault")
	}
	return compiler.TimingMeasurer{}.Measure(cfg, p)
}

// A panic while simulating fails that job alone, with the panic and its
// stack in the job's error; the service keeps running, and nothing is
// cached, so the spec simulates again.
func TestPanicFailsOnlyItsJob(t *testing.T) {
	svc := New(Config{Workers: 1})
	run := svc.engineRun
	var panicked atomic.Bool
	svc.engineRun = func(r Resolved, probe obs.Probe) (JobResult, error) {
		if panicked.CompareAndSwap(false, true) {
			panic("injected fault")
		}
		return run(r, probe)
	}
	svc.Start()
	defer svc.Close()
	spec := JobSpec{Model: "gemm", N: 64, NPU: "small"}
	wait := func() Job {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := svc.Wait(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		return fin
	}
	bad := wait()
	if bad.State != StateFailed || bad.ErrorKind != "panic" ||
		!strings.Contains(bad.Error, "injected fault") || !strings.Contains(bad.Error, "goroutine ") {
		t.Fatalf("panicking job: state %s kind %q error %q", bad.State, bad.ErrorKind, bad.Error)
	}
	good := wait()
	if good.State != StateDone || good.Result.ResultHit {
		t.Fatalf("the same spec after the panic: state %s %+v, want a fresh run", good.State, good.Result)
	}
	if st := svc.Stats(); st.Failed != 1 || st.Done != 1 || st.ResultMisses != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// The waiters of a panicking flight receive the panic as an error instead
// of blocking forever, the panic goes on in the caller that ran it, and the
// table keeps nothing.
func TestFlightPanicReleasesWaiters(t *testing.T) {
	tab := newFlightTable[int](2)
	const waiters = 4
	started := make(chan struct{})
	go func() {
		defer func() {
			if p := recover(); p == nil {
				t.Error("the panic did not reach the caller that ran it")
			}
		}()
		_, _, _ = tab.Do("k", func() (int, error) {
			close(started)
			for tab.waiting("k") < waiters {
				time.Sleep(time.Millisecond)
			}
			panic("injected fault")
		})
	}()
	<-started
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = tab.Do("k", func() (int, error) { return 0, errors.New("ran instead of waiting") })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "injected fault" {
			t.Fatalf("waiter %d: %v, want the panic", i, err)
		}
	}
	if hits, misses, _, held := tab.stats(); hits != 0 || misses != 1 || held != 0 {
		t.Fatalf("hits %d misses %d held %d, want 0, 1, 0", hits, misses, held)
	}
	if v, hit, err := tab.Do("k", func() (int, error) { return 7, nil }); v != 7 || hit || err != nil {
		t.Fatalf("after the panic: %d %v %v, want a fresh run", v, hit, err)
	}
}

// The table never evicts an in-flight entry: one that outlives a bound's
// worth of finished entries is still the entry its waiters join.
func TestFlightKeepsInFlightEntries(t *testing.T) {
	tab := newFlightTable[int](1)
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := tab.Do("slow", func() (int, error) { <-release; return 1, nil })
		done <- v
	}()
	for tab.held("slow") == false {
		time.Sleep(time.Millisecond)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := tab.Do(k, func() (int, error) { return 0, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if !tab.held("slow") {
		t.Fatal("in-flight entry evicted")
	}
	close(release)
	<-done
	if _, hit, _ := tab.Do("slow", func() (int, error) { return 2, nil }); !hit {
		t.Fatal("finished entry not kept")
	}
	if _, _, ev, held := tab.stats(); ev != 3 || held != 1 {
		t.Fatalf("evictions %d held %d, want 3 and 1", ev, held)
	}
}

// Peek answers only from a finished entry: it returns the value, counts a
// hit and makes the entry the most recently used; an in-flight entry
// returns false without blocking, and a failed or evicted one is absent.
func TestFlightPeek(t *testing.T) {
	tab := newFlightTable[int](2)
	for k, v := range map[string]int{"a": 1, "b": 2} {
		if _, _, err := tab.Do(k, func() (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// "a" was used first; peeking it makes "b" the least recently used.
	if v, ok := tab.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d %v, want 1 true", v, ok)
	}
	if hits, misses, _, _ := tab.stats(); hits != 1 || misses != 2 {
		t.Fatalf("hits %d misses %d after one Peek, want 1 and 2", hits, misses)
	}
	if _, _, err := tab.Do("c", func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Peek("b"); ok {
		t.Fatal("Peek found the evicted least recently used entry")
	}
	if !tab.held("a") {
		t.Fatal("Peek did not make its entry the most recently used")
	}

	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = tab.Do("slow", func() (int, error) { <-release; return 4, nil })
	}()
	for !tab.held("slow") {
		time.Sleep(time.Millisecond)
	}
	if _, ok := tab.Peek("slow"); ok {
		t.Fatal("Peek returned an in-flight entry")
	}
	close(release)
	<-done

	if _, _, err := tab.Do("bad", func() (int, error) { return 0, errors.New("failed") }); err == nil {
		t.Fatal("want the run's error")
	}
	if _, ok := tab.Peek("bad"); ok {
		t.Fatal("Peek returned a failed entry")
	}
	if _, ok := tab.Peek("never"); ok {
		t.Fatal("Peek returned an absent key")
	}
	if hits, _, _, _ := tab.stats(); hits != 1 {
		t.Fatalf("%d hits, want only the one finished Peek counted", hits)
	}
}

// waiting reports how many calls have joined key's entry (0 without one).
func (t *flightTable[V]) waiting(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f := t.entries[key]; f != nil {
		return f.waiters
	}
	return 0
}

// held reports whether key has an entry, in flight or finished.
func (t *flightTable[V]) held(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[key] != nil
}
