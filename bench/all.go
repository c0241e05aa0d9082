package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultFile is what a whole-set run writes: the host it ran on and every
// child run. -compare reads two of these.
type resultFile struct {
	Host    hostStamp   `json:"host"`
	Profile string      `json:"profile"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Sets    int         `json:"sets"`
	Runs    []runResult `json:"runs"`
	// TraceOverhead is, per workload, how much longer the median op took
	// in the traced run than in the untraced run of the same set, as a
	// share of the untraced time.
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
}

// runAll runs every workload in a fresh child process (this binary again,
// with -workload), so heap and GC state do not leak from one workload into
// the next and rss_p90_mb is the workload's own. Set k uses seed+k, so the
// sets of one file also show the spread across seeds.
func runAll(seed int64, seconds float64, traced, quick bool, sets int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	host := stampHost()
	file := &resultFile{Host: host, Profile: "full", Seed: seed, Seconds: seconds, Sets: sets, TraceOverhead: map[string]float64{}}
	if quick {
		file.Profile = "quick"
	}
	child := func(w workload, seed int64, trace int) (*runResult, error) {
		tmp := filepath.Join(filepath.Dir(out), fmt.Sprintf(".run-%d.json", os.Getpid()))
		defer os.Remove(tmp)
		args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-json", tmp}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		data, err := os.ReadFile(tmp)
		if err != nil {
			return nil, err
		}
		r := &runResult{}
		return r, json.Unmarshal(data, r)
	}

	incorrect := 0
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			r, err := child(w, seed+int64(set), 0)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, *r)
			if !r.Correct {
				incorrect++
			}
			if !traced || set > 0 {
				continue
			}
			t, err := child(w, seed, 1)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, *t)
			if !t.Correct {
				incorrect++
			}
			if r.OpP50Ms > 0 {
				file.TraceOverhead[w.Name] = t.OpP50Ms/r.OpP50Ms - 1
			}
		}
	}

	fmt.Printf("\nsummary (%d set(s), medians over sets; host_cpus=%d GOMAXPROCS=%d %s commit %s)\n",
		sets, host.HostCPUs, host.GOMAXPROCS, host.GoVersion, host.Commit)
	for _, w := range workloads {
		fmt.Printf("  %s\n", w.Name)
		for _, m := range endToEnd {
			vals := file.values(w.Name, m.Name)
			fmt.Printf("    %-12s %12.6g %-4s", m.Name, median(vals), m.Unit)
			if s, ok := spread(vals); ok {
				fmt.Printf("  spread %.1f%% over %d sets", 100*s, len(vals))
			}
			fmt.Println()
		}
		if ov, ok := file.TraceOverhead[w.Name]; ok {
			fmt.Printf("    trace_overhead %+.1f%% of the untraced median op\n", 100*ov)
		}
	}
	warnOneCPU(host)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) had failed operations or results that differ from expected.json", incorrect)
	}
	return nil
}

// values lists one end-to-end metric of one workload over the untraced runs
// of the file, in set order.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r.Metrics[metric])
		}
	}
	return out
}
