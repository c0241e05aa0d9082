// Package metrics is a small, dependency-free metrics registry exposing
// the Prometheus text exposition format (the role of client_golang,
// without the dependency). It supports fixed-bucket histograms and
// scrape-time collector functions that emit counters and gauges, so a
// server can emit every gauge from one consistent snapshot — the property
// the ptsimd /metrics endpoint relies on to never disagree with /stats
// mid-scrape.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Collector emits zero or more metric families at scrape time.
type Collector interface {
	Collect(e *Emitter)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(e *Emitter)

// Collect implements Collector.
func (f CollectorFunc) Collect(e *Emitter) { f(e) }

// Registry is an ordered set of collectors; WriteTo renders them all in
// registration order.
type Registry struct {
	mu sync.Mutex
	cs []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.cs = append(r.cs, c)
	r.mu.Unlock()
}

// NewHistogram registers and returns a histogram over the given ascending
// bucket upper bounds (an implicit +Inf bucket is always added).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := &Histogram{name: name, help: help,
		buckets: append([]float64(nil), buckets...),
		counts:  make([]uint64, len(buckets))}
	r.Register(h)
	return h
}

// WriteTo renders every registered collector in the Prometheus text
// exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	cs := append([]Collector(nil), r.cs...)
	r.mu.Unlock()
	e := &Emitter{w: w}
	for _, c := range cs {
		c.Collect(e)
	}
	return e.n, e.err
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// --- instruments ----------------------------------------------------------

// Histogram counts observations into fixed buckets.
type Histogram struct {
	name, help string
	mu         sync.Mutex
	buckets    []float64 // ascending upper bounds
	counts     []uint64  // per-bucket (non-cumulative) counts
	sum        float64
	count      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Collect implements Collector.
func (h *Histogram) Collect(e *Emitter) {
	h.mu.Lock()
	buckets := append([]float64(nil), h.buckets...)
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	e.Histogram(h.name, h.help, buckets, counts, sum, count)
}

// --- text exposition -------------------------------------------------------

// Emitter writes metric families in the text exposition format. Errors are
// sticky: after the first write error every call is a no-op.
type Emitter struct {
	w   io.Writer
	n   int64
	err error
}

func (e *Emitter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	n, err := fmt.Fprintf(e.w, format, args...)
	e.n += int64(n)
	e.err = err
}

func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (e *Emitter) header(name, help, typ string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter emits one counter family with a single sample.
func (e *Emitter) Counter(name, help string, v float64) {
	e.header(name, help, "counter")
	e.printf("%s %s\n", name, fmtFloat(v))
}

// Gauge emits one gauge family with a single sample.
func (e *Emitter) Gauge(name, help string, v float64) {
	e.header(name, help, "gauge")
	e.printf("%s %s\n", name, fmtFloat(v))
}

// LabeledSample is one sample of a labeled family: value keyed by one
// label value.
type LabeledSample struct {
	Label string
	Value float64
}

// TenantSamples renders a per-tenant map as labeled samples in sorted
// tenant order (byte-stable scrapes); the unnamed tenant renders as
// "default".
func TenantSamples(m map[string]int64) []LabeledSample {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	samples := make([]LabeledSample, 0, len(keys))
	for _, k := range keys {
		label := k
		if label == "" {
			label = "default"
		}
		samples = append(samples, LabeledSample{Label: label, Value: float64(m[k])})
	}
	return samples
}

// CounterVec emits one counter family with one sample per label value
// (e.g. ptsimd_energy_joules_total{unit="sa"}). Samples render in the
// given order so scrapes are byte-stable.
func (e *Emitter) CounterVec(name, help, label string, samples []LabeledSample) {
	e.header(name, help, "counter")
	for _, s := range samples {
		e.printf("%s{%s=%q} %s\n", name, label, s.Label, fmtFloat(s.Value))
	}
}

// GaugeVec emits one gauge family with one sample per label value
// (e.g. ptsimfleet_tenant_queued{tenant="a"}). Samples render in the given
// order so scrapes are byte-stable.
func (e *Emitter) GaugeVec(name, help, label string, samples []LabeledSample) {
	e.header(name, help, "gauge")
	for _, s := range samples {
		e.printf("%s{%s=%q} %s\n", name, label, s.Label, fmtFloat(s.Value))
	}
}

// Histogram emits one histogram family: cumulative buckets, +Inf, sum and
// count.
func (e *Emitter) Histogram(name, help string, buckets []float64, counts []uint64, sum float64, count uint64) {
	e.header(name, help, "histogram")
	var cum uint64
	for i, ub := range buckets {
		cum += counts[i]
		e.printf("%s_bucket{le=%q} %d\n", name, fmtFloat(ub), cum)
	}
	e.printf("%s_bucket{le=\"+Inf\"} %d\n", name, count)
	e.printf("%s_sum %s\n", name, fmtFloat(sum))
	e.printf("%s_count %d\n", name, count)
}
