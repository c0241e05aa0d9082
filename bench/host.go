package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp is written into every result so that a number is never read
// without the machine it was taken on.
type hostStamp struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func stampHost() hostStamp {
	h := hostStamp{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if root, err := repoRoot(); err == nil {
		if c := gitCommit(filepath.Join(root, ".git")); c != "" {
			h.Commit = c
		}
	}
	return h
}

// warnOneCPU is the guard against the condition that made the old
// BENCH_compile.json and BENCH_engine.json unreadable: with one CPU every
// parallel path runs serially and closed-loop clients share a core with the
// workers they load.
func warnOneCPU(h hostStamp) {
	if h.HostCPUs == 1 {
		fmt.Fprintln(os.Stderr, "bench: WARNING: host_cpus == 1. Compile fan-out, service workers and load clients all share one CPU;")
		fmt.Fprintln(os.Stderr, "bench: WARNING: these numbers do not compare with results from a multi-CPU host.")
	}
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// gitCommit reads HEAD from the files of a .git directory, so stamping a
// result starts no process. It returns "" outside a git checkout.
func gitCommit(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return ""
}

// peakRSSMB is this process's maximum resident set size, printed for the
// reader. It is not a metric: the maximum over a run is one instant, decided
// by where the garbage collector happened to be, and it moved by up to a
// third between identical runs (see README.md).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// rssSampler reads the process's resident set every 20 ms while the timed
// section runs. The metric is the 90th percentile of the samples: a high
// water mark that one collector cycle cannot move. One workload runs per
// process, so this is the workload's own memory.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// finish stops the sampler, waits for it, and returns the samples.
func (r *rssSampler) finish() []float64 {
	close(r.stop)
	<-r.done
	return r.samples
}

func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), true
}
