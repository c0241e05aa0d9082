package metrics

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// sampleLine matches a valid text-exposition sample: name, optional
// labels, a value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+Inf|-?[0-9.eE+-]+)$`)

func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func(e *Emitter) {
		e.Counter("jobs_done_total", "Finished jobs.", 4)
		e.Gauge("queue_depth", "Jobs waiting.", 7)
	}))
	h := r.NewHistogram("latency_seconds", "Job latency.", []float64{0.1, 1, 10})

	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP jobs_done_total Finished jobs.",
		"# TYPE jobs_done_total counter",
		"jobs_done_total 4",
		"# TYPE queue_depth gauge",
		"queue_depth 7",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_sum 56.05",
		"latency_seconds_count 5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every non-comment line must be a parseable sample.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("invalid sample line %q", line)
		}
	}
}

func TestCollectorFuncSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func(e *Emitter) {
		// A server-side collector emits several families from one snapshot.
		e.Gauge("a", "first", 1)
		e.Counter("b_total", "second", 2)
	}))
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "a 1\n") || !strings.Contains(got, "b_total 2\n") {
		t.Fatalf("collector output wrong:\n%s", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if diff := b[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}
