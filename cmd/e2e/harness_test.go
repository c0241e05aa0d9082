// Package e2e drives the built commands and examples end to end: it builds
// each ./cmd/<name> and ./examples/<name> once, runs it as a user would,
// starts the daemons on ephemeral ports and talks to them over HTTP. It
// holds only tests.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// binDir holds the command binaries, built at most once per test process.
var (
	binDir string
	builds sync.Map // package path -> *build
)

type build struct {
	once sync.Once
	path string
	err  error
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e2e-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildCmd returns the path of the binary of the main package at pkg
// (relative to the module root, e.g. "cmd/ptsim" or "examples/chiplet"),
// building it on first use.
func buildCmd(t *testing.T, pkg string) string {
	t.Helper()
	v, _ := builds.LoadOrStore(pkg, &build{})
	b := v.(*build)
	b.once.Do(func() {
		b.path = filepath.Join(binDir, filepath.Base(pkg))
		if out, err := exec.Command("go", "build", "-o", b.path, "repro/"+pkg).CombinedOutput(); err != nil {
			b.err = fmt.Errorf("building %s: %v\n%s", pkg, err, out)
		}
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b.path
}

// run executes bin with args and returns its stdout, stderr and exit error.
func run(bin string, args ...string) (string, string, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// mustRun is run for a command that must succeed; it returns stdout.
func mustRun(t *testing.T, bin string, args ...string) string {
	t.Helper()
	stdout, stderr, err := run(bin, args...)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s%s", filepath.Base(bin), strings.Join(args, " "), err, stdout, stderr)
	}
	return stdout
}

// runJSON runs bin, which must succeed, and decodes its stdout into v.
func runJSON(t *testing.T, v any, bin string, args ...string) {
	t.Helper()
	if err := json.Unmarshal([]byte(mustRun(t, bin, args...)), v); err != nil {
		t.Fatalf("%s %s: stdout is not one JSON document: %v", filepath.Base(bin), strings.Join(args, " "), err)
	}
}

// countBefore returns the number that precedes marker on the first line
// of out holding both, e.g. 4 for " unique kernels measured" on
// `compiled "GEMM(512)": 1 layers, 4 unique kernels measured, ...`.
func countBefore(t *testing.T, out, marker string) int64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		head, _, ok := strings.Cut(line, marker)
		if !ok {
			continue
		}
		fields := strings.Fields(head)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64); err == nil {
			return n
		}
	}
	t.Fatalf("no %q count in:\n%s", marker, out)
	return 0
}

// tlsCycles is the cycle count of ptsim's "TLS: <n> cycles" summary line.
func tlsCycles(t *testing.T, out string) int64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "TLS: "); ok {
			return countBefore(t, rest, " cycles")
		}
	}
	t.Fatalf("no TLS summary line in:\n%s", out)
	return 0
}

// daemon is a started ptsimd or ptsimfleet process.
type daemon struct {
	cmd    *exec.Cmd
	out    syncBuffer // stdout and stderr, drained as the child writes
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// syncBuffer is a bytes.Buffer safe for the exec copier and a reader.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// announceTimeout bounds how long a daemon may take to print its address.
const announceTimeout = 30 * time.Second

// startDaemon starts bin with args and waits for its first announce line,
// "<name>: <role> on <url>". The child's output is drained into a buffer
// as it is written (so it never blocks on a full pipe) and logged if the
// test fails; the child is killed when the test ends.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
		if t.Failed() {
			t.Logf("%s output:\n%s", filepath.Base(bin), d.out.String())
		}
	})
	d.urls(t, filepath.Base(bin)+": ", 1)
	return d
}

// urls waits until the daemon has printed n lines "<prefix>... on <url>"
// and returns their URLs in order.
func (d *daemon) urls(t *testing.T, prefix string, n int) []string {
	t.Helper()
	deadline := time.Now().Add(announceTimeout)
	for {
		var urls []string
		for _, line := range strings.Split(d.out.String(), "\n") {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			if i := strings.LastIndex(line, " on http://"); i >= 0 {
				urls = append(urls, line[i+len(" on "):])
			}
		}
		if len(urls) >= n {
			return urls[:n]
		}
		select {
		case <-d.exited:
			t.Fatalf("daemon exited (%v) before announcing %d %q lines", d.err, n, prefix)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon announced %d of %d %q lines within %v", len(urls), n, prefix, announceTimeout)
		}
	}
}

// stop sends SIGTERM and waits for the daemon to exit; it returns the
// daemon's output and Wait's error.
func (d *daemon) stop(t *testing.T) (string, error) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(announceTimeout):
		t.Fatal("daemon still running after SIGTERM")
	}
	return d.out.String(), d.err
}

// get fetches url, which must answer 200, and returns the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// getJSON decodes the JSON answer of GET url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(get(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// submit POSTs spec to base/jobs, which must answer 202, and returns the
// job id.
func submit(t *testing.T, base string, spec service.JobSpec) string {
	t.Helper()
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(postSpec(t, base+"/jobs", spec, http.StatusAccepted), &job); err != nil || job.ID == "" {
		t.Fatalf("POST %s/jobs: id %q, %v", base, job.ID, err)
	}
	return job.ID
}

// jobTimeout bounds how long a submitted job may take to finish.
const jobTimeout = 60 * time.Second

// waitDone polls base/jobs/id until the job is done and decodes its final
// record into job (a service.Job or a fleet.Job); a failed job fails the
// test.
func waitDone(t *testing.T, base, id string, job any) {
	t.Helper()
	deadline := time.Now().Add(jobTimeout)
	for {
		body := get(t, base+"/jobs/"+id)
		var st struct {
			State service.State `json:"state"`
			Error string        `json:"error"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case service.StateDone:
			if err := json.Unmarshal(body, job); err != nil {
				t.Fatal(err)
			}
			return
		case service.StateFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done within %v (state %q)", id, jobTimeout, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runJob runs spec on base in one request, POST /jobs?wait=1, and decodes
// the finished record into job (a service.Job or a fleet.Job); a failed
// job fails the test.
func runJob(t *testing.T, base string, spec service.JobSpec, job any) {
	t.Helper()
	body := postSpec(t, base+"/jobs?wait=1", spec, http.StatusOK)
	var st struct {
		State service.State `json:"state"`
		Error string        `json:"error"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job %+v ended %q: %s", spec, st.State, st.Error)
	}
	if err := json.Unmarshal(body, job); err != nil {
		t.Fatal(err)
	}
}

// postSpec POSTs spec to url, requires the answer code and returns the
// body.
func postSpec(t *testing.T, url string, spec service.JobSpec, code int) []byte {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != code {
		t.Fatalf("POST %s %s: %s, want %d: %s %v", url, body, resp.Status, code, reply, err)
	}
	return reply
}

// checkTrace validates a Chrome/Perfetto trace written by ptsim, togsim or
// ptserve -trace: the document parses, names its tracks with metadata
// events, and holds at least one compute, DMA and job span and one counter
// sample, every span with ts >= 0 and dur >= 1. With wantEnergy it also
// needs the power-over-time track (core.energy_pj counter samples). It
// returns the events.
func checkTrace(t *testing.T, path string, wantEnergy bool) []obs.Event {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: not valid trace JSON: %v", path, err)
	}
	var meta, counters, compute, dma, jobs, energy int
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "C":
			counters++
			if ev.Name == "core.energy_pj" {
				energy++
			}
		case "X":
			if ev.TS < 0 || ev.Dur < 1 {
				t.Fatalf("%s: event %d: span %q has ts=%d dur=%d", path, i, ev.Name, ev.TS, ev.Dur)
			}
			if ev.PID == obs.PIDMemory {
				continue
			}
			switch ev.TID {
			case obs.LaneSA, obs.LaneVector, obs.LaneSparse:
				compute++
			case obs.LaneDMA:
				dma++
			case obs.LaneJobs:
				jobs++
			}
		default:
			t.Fatalf("%s: event %d: unknown phase %q", path, i, ev.Ph)
		}
	}
	for _, c := range []struct {
		n    int
		what string
	}{
		{meta, "track metadata events"},
		{compute, "compute spans"},
		{dma, "DMA spans"},
		{jobs, "job spans"},
		{counters, "counter samples"},
	} {
		if c.n == 0 {
			t.Fatalf("%s: no %s", path, c.what)
		}
	}
	if wantEnergy && energy == 0 {
		t.Fatalf("%s: no power-over-time track (core.energy_pj counter samples)", path)
	}
	return doc.TraceEvents
}
