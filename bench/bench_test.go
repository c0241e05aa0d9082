package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	// Fewer than ten samples: nearest rank is the slowest one.
	if got := percentile([]float64{3, 9, 4}, 90); got != 9 {
		t.Errorf("p90 of three = %v, want the slowest, 9", got)
	}
	if got := samplesBeyond(240, 90); got != 24 {
		t.Errorf("samplesBeyond(240, 90) = %d, want 24", got)
	}
	if got := samplesBeyond(5, 90); got != 0 {
		t.Errorf("samplesBeyond(5, 90) = %d, want 0", got)
	}
}

// The driver takes quartiles with Python's statistics.quantiles(v, n=4);
// these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3, ok := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if !ok || !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 8.25", q1, q3, ok)
	}
	q1, q3, ok = quartiles([]float64{1, 2})
	if !ok || !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 2.25", q1, q3, ok)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must not be ok")
	}
	s, ok := spread([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if !ok || !near(s, 1.0) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "engine", StartNs: 10, EndNs: 90},
		{ID: 3, Parent: 2, Name: "fabric", StartNs: 10, EndNs: 50, Aggregate: true},
		{ID: 4, Parent: 3, Name: "dram", StartNs: 10, EndNs: 30, Aggregate: true},
		{ID: 5, Parent: 3, Name: "noc", StartNs: 30, EndNs: 40, Aggregate: true},
		{ID: 6, Parent: 1, Name: "report", StartNs: 90, EndNs: 95},
		// An aggregate summed over two goroutines: longer than its parent.
		{ID: 7, Parent: 6, Name: "sum", StartNs: 90, EndNs: 120, Aggregate: true},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 15e-9, "engine": 40e-9, "fabric": 10e-9, "dram": 20e-9, "noc": 10e-9, "report": 0, "sum": 5e-9}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self[%s] = %v, want %v", name, got[name], w)
		}
	}
	if r := selfSumRatio(spans); !near(r, 1) {
		t.Errorf("selfSumRatio = %v, want 1: self times must add up to the root", r)
	}
	// Two children that overlap are covered once, and then the self times
	// no longer add up: the ratio shows it.
	overlap := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 0, EndNs: 60},
		{ID: 3, Parent: 1, Name: "b", StartNs: 40, EndNs: 100},
	}
	if got := selfTimes(overlap)["root"]; !near(got, 0) {
		t.Errorf("overlapping children: root self = %v, want 0", got)
	}
	if r := selfSumRatio(overlap); !near(r, 1.2) {
		t.Errorf("overlapping children: ratio = %v, want 1.2", r)
	}
}

func TestTracerNilAndAggregates(t *testing.T) {
	var nilTr *tracer
	if id := nilTr.open(0, "x", "r", time.Now()); id != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
	nilTr.setEnd(0, time.Now())
	if nilTr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}

	tr := newTracer()
	root := tr.open(0, "root", "r1", tr.t0)
	tr.setEnd(root, tr.t0.Add(100))
	a := tr.addAgg(root, "a", "r1", 0, 30)
	tr.addAgg(root, "b", "r1", 30, 20)
	tr.addAgg(a, "a.child", "r1", 0, 10)
	got := selfTimes(tr.snapshot())
	for name, w := range map[string]float64{"root": 50e-9, "a": 20e-9, "b": 20e-9, "a.child": 10e-9} {
		if !near(got[name], w) {
			t.Errorf("self[%s] = %v, want %v", name, got[name], w)
		}
	}
}

func TestJobListSeeded(t *testing.T) {
	for _, p := range []*profile{fullProfile, quickProfile} {
		a, b := jobList(p, 7, 6), jobList(p, 7, 6)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the same seed gave two different job lists", p.name)
		}
		c := jobList(p, 8, 6)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", p.name)
		}
		// Every block repeats the same pool jobs whatever the seed; only
		// the order and the never-seen shapes differ.
		block := len(p.jobsCheap) + p.heavyRepeat*len(p.jobsHeavy) + p.coldCheapPerBlock + p.coldHeavyPerBlk
		if len(a) != 6*block {
			t.Fatalf("%s: %d jobs, want 6 blocks of %d", p.name, len(a), block)
		}
		warm := func(l []streamJob) []string {
			var out []string
			for _, j := range l[:block] {
				if !j.cold {
					out = append(out, j.spec.label())
				}
			}
			sort.Strings(out)
			return out
		}
		if !reflect.DeepEqual(warm(a), warm(c)) {
			t.Errorf("%s: the repeated jobs of a block depend on the seed", p.name)
		}
		seen := map[string]bool{}
		for _, s := range p.warmPool() {
			seen[s.label()] = true
		}
		for _, j := range a {
			if j.cold && seen[j.spec.label()] {
				t.Errorf("%s: %s is marked never-seen but was seen before", p.name, j.spec.label())
			}
			seen[j.spec.label()] = true
		}
	}
	if n := len(fullProfile.warmPool()); n != 20 {
		t.Errorf("repeated pool has %d specs, want 20", n)
	}
}

func TestExpectedPinsEverySpec(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*profile{fullProfile, quickProfile} {
		set := want.forProfile(p)
		for _, s := range p.allJobSpecs() {
			if _, ok := set.JobCycles[s.label()]; !ok {
				t.Errorf("%s: no pinned cycles for %s (run -pin)", p.name, s.label())
			}
		}
		for _, s := range p.zoo {
			if _, ok := set.CompileDigest[specLabel(s)]; !ok {
				t.Errorf("%s: no pinned digest for %s (run -pin)", p.name, specLabel(s))
			}
		}
		for _, w := range workloads {
			if _, ok := set.SimCycles[w.Name]; !ok && strings.HasPrefix(w.Name, "sim.") {
				t.Errorf("%s: no pinned cycles for %s (run -pin)", p.name, w.Name)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", "ok"},
		{"slower within bound", []float64{108, 109, 107, 108, 108}, "lower", "ok"},
		{"slower beyond bound", []float64{115, 116, 114, 115, 115}, "lower", "worse"},
		{"lower is worse when higher is better", []float64{85, 86, 84, 85, 85}, "higher", "worse"},
		{"higher is fine when higher is better", []float64{115, 116, 114, 115, 115}, "higher", "ok"},
		{"spread wider than the bound", []float64{80, 150, 100, 130, 90}, "lower", "unresolved"},
	} {
		if got, _, _ := verdict(base, tc.change, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// One set per file: no spread, so never unresolved.
	if got, worse, _ := verdict([]float64{100}, []float64{120}, "lower", 0.10); got != "worse" || !near(worse, 0.2) {
		t.Errorf("single set: %q worse by %v, want worse by 0.2", got, worse)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is data for the driver; the lists in workloads.go are what
// the program prints. This keeps the two the same and inside the contract.
func TestDeclarationMatchesCode(t *testing.T) {
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	names := map[string]bool{}
	unique := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if names[n] {
			t.Errorf("name %q is used twice", n)
		}
		names[n] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q, code %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(decl.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range decl.EndToEnd {
		unique(m.Name)
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d]: declared %+v, code %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Error("per_layer differs from the perLayer list in workloads.go")
	}
	for _, m := range decl.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
	}
}

// TestQuickSmoke drives every workload path, untraced and traced, on the
// quick profile: tiny shapes, a fraction of a second each.
func TestQuickSmoke(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := &runCtx{name: w.Name, seed: 3, seconds: 0.15, prof: quickProfile, want: want.forProfile(quickProfile)}
			if traced {
				rc.tr = newTracer()
			}
			o, err := w.run(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			r := o.result(rc)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			line, err := json.Marshal(r.wire())
			if err != nil {
				t.Fatal(err)
			}
			var wire struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &wire); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(wire.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(wire.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := wire.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.Name, traced, m.Name, got.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if r := wire.Metrics["trace.self_sum_ratio"].Value; r < 0.95 || r > 1.05 {
					t.Errorf("%s: self times add up to %.3f of the root spans, want within 5%%", w.Name, r)
				}
			}
		}
	}
}

// A traced run must reach the same simulated result as the untraced run:
// the decorators may cost time, never cycles.
func TestDecoratorsKeepCycles(t *testing.T) {
	for _, traced := range []bool{false, true} {
		set := newExpectedSet(true)
		rc := &runCtx{name: "sim.resnet18-c4", seed: 1, prof: quickProfile, want: set}
		if traced {
			rc.tr = newTracer()
		}
		if _, err := runSim(rc, quickProfile.simConv, quickProfile.multiCores); err != nil {
			t.Fatal(err)
		}
		want, err := loadExpected()
		if err != nil {
			t.Fatal(err)
		}
		if got, pinned := set.SimCycles[rc.name], want.Quick.SimCycles[rc.name]; got != pinned || got == 0 {
			t.Errorf("traced=%v: %d cycles, pinned %d", traced, got, pinned)
		}
	}
}

// A wrong pin must be counted as a failed operation.
func TestMismatchCountsAsFailure(t *testing.T) {
	set := newExpectedSet(false)
	set.SimCycles["sim.resnet18-c1"] = 1
	rc := &runCtx{name: "sim.resnet18-c1", seed: 1, prof: quickProfile, want: set}
	o, err := runSim(rc, quickProfile.simConv, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := o.result(rc)
	if r.Correct || r.Failed != r.Attempted || r.Failed == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d, want every op failed", r.Correct, r.Failed, r.Attempted)
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(scale float64) *resultFile {
		f := &resultFile{Host: hostStamp{HostCPUs: 2, GOMAXPROCS: 2}, Profile: "full", Seconds: 10, Sets: 3}
		for set := 0; set < 3; set++ {
			for _, w := range workloads {
				r := runResult{Workload: w.Name, Seed: int64(set), Correct: true, Attempted: 1, Metrics: map[string]float64{}}
				for _, m := range endToEnd {
					v := 100 + float64(set)
					if m.Name == "op_p50_ms" && w.Name == "sim.resnet18-c4" {
						v *= scale
					}
					r.Metrics[m.Name] = v
				}
				f.Runs = append(f.Runs, r)
			}
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow := write("a.json", mk(1)), write("same.json", mk(1)), write("slow.json", mk(1.5))
	var buf bytes.Buffer
	if err := compareFiles(&buf, a, same); err != nil {
		t.Errorf("identical files: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "unresolved") || strings.Contains(buf.String(), "worse\n") {
		t.Errorf("identical files gave a verdict other than ok:\n%s", buf.String())
	}
	buf.Reset()
	if err := compareFiles(&buf, a, slow); err == nil {
		t.Errorf("a 50%% slower op_p50_ms on one workload must fail the comparison:\n%s", buf.String())
	}
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasSuffix(line, "  worse") {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d rows worse, want exactly the slowed one:\n%s", n, buf.String())
	}
}

func TestGitCommitFromFiles(t *testing.T) {
	dir := t.TempDir()
	if got := gitCommit(dir); got != "" {
		t.Errorf("no HEAD: %q", got)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(os.WriteFile(filepath.Join(dir, "HEAD"), []byte("ref: refs/heads/main\n"), 0o644))
	must(os.WriteFile(filepath.Join(dir, "packed-refs"), []byte("# pack-refs\nabc123 refs/heads/main\n"), 0o644))
	if got := gitCommit(dir); got != "abc123" {
		t.Errorf("packed ref: %q", got)
	}
	must(os.MkdirAll(filepath.Join(dir, "refs", "heads"), 0o755))
	must(os.WriteFile(filepath.Join(dir, "refs", "heads", "main"), []byte("def456\n"), 0o644))
	if got := gitCommit(dir); got != "def456" {
		t.Errorf("loose ref: %q", got)
	}
}
