package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkDecl is BENCHMARK.json at the repository root.
type benchmarkDecl struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDecl() (*benchmarkDecl, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	d := &benchmarkDecl{}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict judges one metric of one workload: base and change are the values
// over each file's sets. "worse" means the change's median is worse than
// the base's by more than the bound; "unresolved" means the run-to-run
// spread of either side is wider than the bound, so a difference of that
// size could not be told from noise; otherwise "ok". worseBy is the share
// of the base median by which the change is worse (negative: better).
func verdict(base, change []float64, better string, bound float64) (v string, worseBy, widest float64) {
	mb, mc := median(base), median(change)
	if mb != 0 {
		worseBy = (mc - mb) / mb
		if better == "higher" {
			worseBy = -worseBy
		}
	}
	for _, xs := range [][]float64{base, change} {
		if s, ok := spread(xs); ok && s > widest {
			widest = s
		}
	}
	switch {
	case widest > bound:
		return "unresolved", worseBy, widest
	case worseBy > bound:
		return "worse", worseBy, widest
	}
	return "ok", worseBy, widest
}

// compareFiles prints one row per workload and end-to-end metric, every
// ratio with its base, and fails when any row is worse or any run of either
// file had failed operations.
func compareFiles(w io.Writer, pathA, pathB string) error {
	decl, err := loadDecl()
	if err != nil {
		return err
	}
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base   %s: commit %s, host_cpus=%d GOMAXPROCS=%d %s, %d set(s) of %g s\n", pathA, a.Host.Commit, a.Host.HostCPUs, a.Host.GOMAXPROCS, a.Host.GoVersion, a.Sets, a.Seconds)
	fmt.Fprintf(w, "change %s: commit %s, host_cpus=%d GOMAXPROCS=%d %s, %d set(s) of %g s\n", pathB, b.Host.Commit, b.Host.HostCPUs, b.Host.GOMAXPROCS, b.Host.GoVersion, b.Sets, b.Seconds)
	if a.Host.HostCPUs != b.Host.HostCPUs || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Seconds != b.Seconds || a.Profile != b.Profile {
		fmt.Fprintln(w, "WARNING: the two files were not taken with the same CPUs, profile and run length; the rows below do not compare like with like")
	}
	if a.Sets < 3 || b.Sets < 3 {
		fmt.Fprintln(w, "note: fewer than 3 sets in a file: its run-to-run spread is unknown, so no row can come out unresolved (use -sets 5)")
	}
	fmt.Fprintf(w, "%-20s %-12s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "base median", "change median", "worse by", "bound", "spread", "verdict")
	bad := 0
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-20s %-12s missing from a file\n", wl.Name, m.Name)
				bad++
				continue
			}
			v, worseBy, widest := verdict(va, vb, m.Better, m.Bound)
			fmt.Fprintf(w, "%-20s %-12s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*worseBy, 100*m.Bound, 100*widest, v)
			if v == "worse" {
				bad++
			}
		}
	}
	for _, f := range []*resultFile{a, b} {
		for _, r := range f.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "FAILED: %s seed %d: %d of %d operations failed: %v\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.Problems)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse, missing or failed", bad)
	}
	return nil
}
