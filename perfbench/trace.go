package main

// The traced run's span recorder. Spans are recorded from the
// benchmark's own files, around its calls into each layer; the
// program itself is not instrumented for the benchmark. Spans stay in
// memory until the run ends, then feed the per-layer metrics and a
// Chrome trace-event file.
//
// Three kinds of span exist:
//   - measured: begin/finish around a call, with the heap bytes
//     allocated in between (runtime/metrics, so the legs run serially);
//   - derived: a phase total the program already reports in its obs
//     report (partition, rb_coarsen, tree_induction, ...), which the
//     benchmark cannot split from outside. It is laid out inside its
//     parent after the parent's earlier derived children, and scaled
//     down when the children's busy time (summed over parallel
//     bisection workers) exceeds the parent's wall time;
//   - placed: explicit bounds, used by the serving workload, where
//     concurrent jobs make allocation deltas meaningless (alloc 0).

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

type span struct {
	name       string
	start, end int64 // ns since the tracer's base
	dur        int64 // derived spans: the program-reported duration
	derived    bool
	allocAt    uint64
	alloc      uint64 // heap bytes allocated while open (inclusive)
	children   []*span
}

// tracer records spans from one goroutine.
type tracer struct {
	base  time.Time
	roots []*span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

func (t *tracer) attach(parent, s *span) {
	if parent != nil {
		parent.children = append(parent.children, s)
		return
	}
	t.roots = append(t.roots, s)
}

// begin opens a measured span.
func (t *tracer) begin(parent *span, name string) *span {
	s := &span{name: name, start: t.at(time.Now()), allocAt: heapAllocBytes()}
	t.attach(parent, s)
	return s
}

// finish closes a measured span.
func (t *tracer) finish(s *span) {
	s.alloc = heapAllocBytes() - s.allocAt
	s.end = t.at(time.Now())
}

// derive adds a program-reported phase total under parent.
func (t *tracer) derive(parent *span, name string, durNS int64) *span {
	s := &span{name: name, dur: durNS, derived: true}
	t.attach(parent, s)
	return s
}

// place adds a span with explicit bounds, clipped to its parent.
func (t *tracer) place(parent *span, name string, start, end time.Time) *span {
	s := &span{name: name, start: t.at(start), end: t.at(end)}
	if parent != nil {
		s.start = max(s.start, parent.start)
		s.end = min(s.end, parent.end)
	}
	s.end = max(s.end, s.start)
	t.attach(parent, s)
	return s
}

// layout positions every derived span inside its parent.
func layout(s *span) {
	var sum int64
	for _, c := range s.children {
		if c.derived {
			sum += c.dur
		}
	}
	scale := 1.0
	if wall := s.end - s.start; sum > wall && sum > 0 {
		scale = float64(wall) / float64(sum)
	}
	cursor := s.start
	for _, c := range s.children {
		if c.derived {
			c.start = cursor
			c.end = cursor + int64(float64(c.dur)*scale)
			cursor = c.end
		}
		layout(c)
	}
}

// layerStat aggregates one span name.
type layerStat struct {
	SelfNS int64
	Calls  int64
	Alloc  uint64
}

// aggregate lays out derived spans and sums self time (duration minus
// children), calls and self allocations per span name. wallNS is the
// summed duration of the root spans.
func (t *tracer) aggregate() (stats map[string]*layerStat, wallNS int64) {
	stats = map[string]*layerStat{}
	var walk func(s *span)
	walk = func(s *span) {
		self, alloc := s.end-s.start, s.alloc
		for _, c := range s.children {
			self -= c.end - c.start
			alloc -= min(alloc, c.alloc)
			walk(c)
		}
		st := stats[s.name]
		if st == nil {
			st = &layerStat{}
			stats[s.name] = st
		}
		st.SelfNS += max(self, 0)
		st.Calls++
		st.Alloc += alloc
	}
	for _, r := range t.roots {
		layout(r)
		walk(r)
		wallNS += r.end - r.start
	}
	return stats, wallNS
}

// traceEvent is one Chrome trace-event entry.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as balanced B/E events. Root spans that
// overlap in time (concurrent serving jobs) go to separate lanes,
// assigned first-fit in start order. Call after aggregate.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	roots := append([]*span(nil), t.roots...)
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].start < roots[j].start })
	events := []traceEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": process}}}
	var laneEnd []int64
	var emit func(s *span, tid int)
	emit = func(s *span, tid int) {
		events = append(events, traceEvent{Name: s.name, Ph: "B", TS: float64(s.start) / 1e3, Tid: tid})
		kids := append([]*span(nil), s.children...)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		for _, c := range kids {
			emit(c, tid)
		}
		events = append(events, traceEvent{Name: s.name, Ph: "E", TS: float64(s.end) / 1e3, Tid: tid})
	}
	for _, r := range roots {
		lane := -1
		for i, end := range laneEnd {
			if end <= r.start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Tid: lane + 1,
				Args: map[string]any{"name": "lane " + strconv.Itoa(lane+1)}})
		}
		laneEnd[lane] = r.end
		emit(r, lane+1)
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
