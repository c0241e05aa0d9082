package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval at a layer boundary. Spans of one request (a rep, a
// compile, a job) share Req. An aggregate span stands for many short calls
// whose summed duration was counted instead of recorded one by one (a
// fabric Tick happens millions of times per run): its length is exact, its
// position inside the parent is not.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent,omitempty"`
	Name      string `json:"name"`
	Req       string `json:"req"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Aggregate bool   `json:"aggregate,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run is kept free of tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id for use as a parent.
func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.addNs(parent, name, req, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), false)
}

// addAgg records an aggregate child of the given length, laid out offset
// nanoseconds after its parent's start so that sibling aggregates do not
// overlap.
func (t *tracer) addAgg(parent int, name, req string, offset, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	start := t.spans[parent-1].StartNs + int64(offset)
	t.mu.Unlock()
	return t.addNs(parent, name, req, start, start+int64(dur), true)
}

func (t *tracer) addNs(parent int, name, req string, start, end int64, agg bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNs: start, EndNs: end, Aggregate: agg})
	return id
}

// open records a span whose end is not known yet and returns its id, so
// that children can name it as their parent while it runs.
func (t *tracer) open(parent int, name, req string, start time.Time) int {
	return t.add(parent, name, req, start, start)
}

// setEnd closes a span that was added open, so that children could name it
// as their parent while it ran.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it that its children cover. A child is
// first clipped to its parent (an aggregate that sums time over several
// goroutines can be longer than the wall time of the span it ran under) and
// overlapping children are counted once, so the self times under a root add
// up to the root's duration when children run one after another.
func selfTimes(spans []span) map[string]float64 {
	// Parents are recorded before their children, so one pass in id order
	// sees every parent already clipped.
	clipped := make([]span, len(spans))
	kids := map[int][]span{}
	for i, s := range spans {
		if s.Parent != 0 {
			p := clipped[s.Parent-1]
			s.StartNs = min(max(s.StartNs, p.StartNs), p.EndNs)
			s.EndNs = min(max(s.EndNs, s.StartNs), p.EndNs)
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		clipped[i] = s
	}
	out := map[string]float64{}
	for _, s := range clipped {
		out[s.Name] += float64(s.EndNs-s.StartNs-covered(s, kids[s.ID])) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals, which
// selfTimes has already clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	end := parent.StartNs
	for _, k := range kids {
		if k.EndNs > end {
			total += k.EndNs - max(k.StartNs, end)
			end = k.EndNs
		}
	}
	return total
}

// selfSumRatio is the summed self time of every span divided by the summed
// duration of the root spans: 1 when the spans nest without gaps or
// overlap, which is the check that no layer's time is lost or counted
// twice.
func selfSumRatio(spans []span) float64 {
	var roots, selfs float64
	for _, s := range spans {
		if s.Parent == 0 {
			roots += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	for _, v := range selfTimes(spans) {
		selfs += v
	}
	if roots == 0 {
		return 0
	}
	return selfs / roots
}
