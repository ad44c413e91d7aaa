// Package obs is the observability layer of the evaluation pipeline:
// named wall-clock phases, histograms, and monotonic counters that the
// decomposition pipeline (partition, tree induction), the parallel
// engine (global search, local search), and the measurement harness
// (metric evaluation) report into, exported as a machine-readable JSON
// report, a human table, and Prometheus text exposition.
//
// Collector.Phase is the one instrumentation primitive for a timed
// region: a single call records one sample of the phase histogram
// (and with it the Prometheus family of the same name) and, when a
// parent span is given, opens a same-named child span in the trace.
// The histogram is the phase's only record; a report's phases are
// views of it (count, sum, max). Nothing else opens a timed region,
// so every phase name in a report is also a span name in the trace of
// the same run.
//
// A nil *Collector is valid everywhere and records nothing, so hot
// paths thread a collector through unconditionally and pay one nil
// check when observability is off. All methods are safe for concurrent
// use; the engine's workers and the harness's measurement legs report
// into one collector from many goroutines.
//
// Canonical phase names used across the repo (the per-phase breakdown
// of one end-to-end experiment):
//
//	partition         multilevel multi-constraint partitioning (core step 2)
//	rb_coarsen,       the multilevel phases of one bisection inside
//	rb_initcut,       partition, also recorded per recursion depth as
//	rb_refine         <name>_d<depth>
//	tree_induction    guidance + descriptor decision trees (core steps 3, 5)
//	drift_eval        grading inherited labels against the drift policy
//	global_search     engine phase 2: tree filtering + element shipping
//	local_search      engine phase 3: narrow-phase detection
//	metric_eval       harness Section 5.1 metric computation, one per
//	                  measurement leg (span attribute leg=mc|ml)
//	checkpoint_write  harness checkpoint flush
//	sfc_*, bkmeans_*  the geometric backends' phases
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// Collector accumulates phase timings, counters, gauges, and
// histograms. The zero value is ready to use; so is nil (every method
// no-ops).
type Collector struct {
	mu       sync.Mutex
	counters map[string]int64
	maxes    map[string]int64
	hists    map[string]*hist
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Phase is one timed occurrence of a named pipeline phase, opened by
// Collector.Phase.
type Phase struct {
	c    *Collector
	span *Span
	name string
	t0   time.Time
}

// Phase starts timing one occurrence of the named phase. When parent
// is non-nil it also opens a same-named child span of parent carrying
// attrs, so the histogram and the trace always agree on phase names.
// Usage:
//
//	ph := c.Phase(span, "partition", obs.Int("k", k))
//	defer ph.End()
//
// A nil collector and a nil parent record nothing and allocate
// nothing; the phase is still timed, so End's duration is always
// valid.
func (c *Collector) Phase(parent *Span, name string, attrs ...Attr) Phase {
	return Phase{c: c, span: parent.Child(name, attrs...), name: name, t0: time.Now()}
}

// End completes the phase: it records one sample under the phase's
// name, ends its span, and returns the elapsed time. Call it once.
func (p Phase) End() time.Duration {
	d := time.Since(p.t0)
	p.c.Observe(p.name, d) //lint:ignore metricname forwarding the caller's name; Phase call sites are checked
	p.span.End()
	return d
}

// Span returns the phase's span (nil when the phase has no parent),
// for nesting further spans or for obs.ContextWithSpan.
func (p Phase) Span() *Span { return p.span }

// Observe records one completed occurrence of the named phase: its
// duration, in nanoseconds, is one sample of the phase's histogram,
// from which Report derives the phase's count, total, and maximum.
func (c *Collector) Observe(name string, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	h := c.histLocked(name)
	h.observe(int64(d))
	h.phase = true
	c.mu.Unlock()
}

// Add increments the named counter by delta.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.counters == nil {
		c.counters = map[string]int64{}
	}
	c.counters[name] += delta
	c.mu.Unlock()
}

// Max records the maximum of v seen under the named gauge (e.g. the
// peak number of busy partitioner workers). Gauges are reported in
// Report.Gauges, separate from Counters, so a counter and a gauge
// sharing a name can never collide into two same-named entries.
func (c *Collector) Max(name string, v int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.maxes == nil {
		c.maxes = map[string]int64{}
	}
	if v > c.maxes[name] {
		c.maxes[name] = v
	}
	c.mu.Unlock()
}

// PhaseStat is one phase's aggregate in a Report. Count is the number
// of observations (for phases run once per worker or once per
// snapshot, the fan-out); Total sums wall-clock across observations,
// so for phases timed inside concurrent workers it is aggregate busy
// time, not elapsed time.
type PhaseStat struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	AvgNS   int64  `json:"avg_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// CounterStat is one counter's value in a Report.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Report is the exportable snapshot of a collector. Every slice is
// sorted by name so reports are deterministic and diffable. Gauges
// (Collector.Max) are reported separately from Counters
// (Collector.Add): the two namespaces are independent, so a counter
// and a gauge sharing a name stay two distinct, unambiguous entries.
type Report struct {
	Phases   []PhaseStat   `json:"phases"`
	Counters []CounterStat `json:"counters"`
	Gauges   []CounterStat `json:"gauges,omitempty"`
	Hists    []HistStat    `json:"hists,omitempty"`
}

// Report snapshots the collector. Safe to call while recording
// continues; the snapshot is consistent.
func (c *Collector) Report() Report {
	var r Report
	if c == nil {
		return r
	}
	c.mu.Lock()
	for name, v := range c.counters {
		r.Counters = append(r.Counters, CounterStat{Name: name, Value: v})
	}
	for name, v := range c.maxes {
		r.Gauges = append(r.Gauges, CounterStat{Name: name, Value: v})
	}
	for name, h := range c.hists {
		r.Hists = append(r.Hists, h.stat(name))
		if h.phase { // a phase's stats are views of its histogram
			r.Phases = append(r.Phases, PhaseStat{Name: name, Count: h.count,
				TotalNS: h.sum, AvgNS: h.sum / max(h.count, 1), MaxNS: h.max})
		}
	}
	c.mu.Unlock()
	sort.Slice(r.Phases, func(i, j int) bool { return r.Phases[i].Name < r.Phases[j].Name })
	sort.Slice(r.Counters, func(i, j int) bool { return r.Counters[i].Name < r.Counters[j].Name })
	sort.Slice(r.Gauges, func(i, j int) bool { return r.Gauges[i].Name < r.Gauges[j].Name })
	sort.Slice(r.Hists, func(i, j int) bool { return r.Hists[i].Name < r.Hists[j].Name })
	return r
}

// Merge folds a previously exported report back into the collector:
// counters and histogram buckets add (bucket indexes are part of the
// schema, so the fold is exact), gauges take the larger value, and the
// histograms named in r.Phases become phases again. A phase's stats
// are views of its histogram, so a phase without one is an error. It
// is the resume path for checkpointed sweeps — a merged collector
// reports cumulative numbers, not post-resume-only.
func (c *Collector) Merge(r Report) error {
	if c == nil {
		return nil
	}
	for _, ct := range r.Counters {
		c.Add(ct.Name, ct.Value) //lint:ignore metricname merging an existing report; the originating call sites are checked
	}
	for _, g := range r.Gauges {
		c.Max(g.Name, g.Value) //lint:ignore metricname merging an existing report; the originating call sites are checked
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, hs := range r.Hists {
		if err := c.histLocked(hs.Name).merge(hs); err != nil {
			return err
		}
	}
	for _, p := range r.Phases {
		h := c.hists[p.Name]
		if h == nil {
			return fmt.Errorf("obs: phase %q has no histogram", p.Name)
		}
		h.phase = true
	}
	return nil
}

// WriteJSON emits the report as indented JSON (the schema documented
// in README.md: {"phases":[{name,count,total_ns,avg_ns,max_ns}],
// "counters":[{name,value}], "gauges":[{name,value}],
// "hists":[{name,count,sum,min,max,p50,p90,p99,buckets}]}).
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report for humans, including a
// sparkline-style rendering of each histogram's distribution.
// Histograms named after a phase hold nanoseconds and are rendered as
// durations; all others are raw values.
func (r Report) WriteTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(r.Phases) > 0 {
		fmt.Fprintln(tw, "phase\tcount\ttotal\tavg\tmax")
		for _, p := range r.Phases {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", p.Name, p.Count,
				time.Duration(p.TotalNS).Round(time.Microsecond),
				time.Duration(p.AvgNS).Round(time.Microsecond),
				time.Duration(p.MaxNS).Round(time.Microsecond))
		}
	}
	if len(r.Counters) > 0 {
		fmt.Fprintln(tw, "counter\tvalue\t\t\t")
		for _, c := range r.Counters {
			fmt.Fprintf(tw, "%s\t%d\t\t\t\n", c.Name, c.Value)
		}
	}
	if len(r.Gauges) > 0 {
		fmt.Fprintln(tw, "gauge\tvalue\t\t\t")
		for _, g := range r.Gauges {
			fmt.Fprintf(tw, "%s\t%d\t\t\t\n", g.Name, g.Value)
		}
	}
	if len(r.Hists) > 0 {
		isPhase := make(map[string]bool, len(r.Phases))
		for _, p := range r.Phases {
			isPhase[p.Name] = true
		}
		fmtVal := func(name string, v int64) string {
			if isPhase[name] {
				return time.Duration(v).Round(time.Microsecond).String()
			}
			return fmt.Sprintf("%d", v)
		}
		fmt.Fprintln(tw, "histogram\tp50\tp90\tp99\tdist")
		for _, h := range r.Hists {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", h.Name,
				fmtVal(h.Name, h.P50), fmtVal(h.Name, h.P90), fmtVal(h.Name, h.P99),
				sparkline(h, 16))
		}
	}
	// Human-readable best-effort output, matching the fmt.Fprintf calls
	// above; a broken terminal is not an actionable error here.
	_ = tw.Flush()
}
