package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Phase(nil, "x").End()
	c.Observe("x", time.Second)
	c.Add("n", 3)
	r := c.Report()
	if len(r.Phases) != 0 || len(r.Counters) != 0 {
		t.Errorf("nil collector recorded something: %+v", r)
	}
}

func TestObserveAndAdd(t *testing.T) {
	c := New()
	c.Observe("phase", 2*time.Millisecond)
	c.Observe("phase", 4*time.Millisecond)
	c.Add("widgets", 5)
	c.Add("widgets", 7)
	r := c.Report()
	if len(r.Phases) != 1 || len(r.Counters) != 1 {
		t.Fatalf("report: %+v", r)
	}
	p := r.Phases[0]
	if p.Name != "phase" || p.Count != 2 {
		t.Errorf("phase: %+v", p)
	}
	if p.TotalNS != int64(6*time.Millisecond) || p.MaxNS != int64(4*time.Millisecond) {
		t.Errorf("timings: %+v", p)
	}
	if p.AvgNS != int64(3*time.Millisecond) {
		t.Errorf("avg: %d", p.AvgNS)
	}
	if r.Counters[0].Value != 12 {
		t.Errorf("counter: %+v", r.Counters[0])
	}
}

// TestPhaseRecordsHistogramAndSpan: one Phase call yields the phase
// histogram (and its report view) and a same-named child span
// carrying the attrs; End returns the duration it recorded.
func TestPhaseRecordsHistogramAndSpan(t *testing.T) {
	c := New()
	tr := NewTracer()
	root := tr.Root("root")
	ph := c.Phase(root, "work", Str("leg", "mc"))
	if ph.Span() == nil || ph.Span().Name() != "work" {
		t.Fatalf("phase span = %v, want a child named work", ph.Span())
	}
	time.Sleep(time.Millisecond)
	d := ph.End()
	root.End()
	r := c.Report()
	if len(r.Phases) != 1 || r.Phases[0].Name != "work" || r.Phases[0].TotalNS != int64(d) || d <= 0 {
		t.Errorf("phase did not record the returned %v: %+v", d, r.Phases)
	}
	if len(r.Hists) != 1 || r.Hists[0].Name != "work" || r.Hists[0].Count != 1 {
		t.Errorf("histogram did not record: %+v", r.Hists)
	}
	spans := tr.snapshotSpans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want root + work", len(spans))
	}
	for _, s := range spans {
		if s.name == "work" && (s.parent != root.id || len(s.attrs) != 1 || s.attrs[0] != Str("leg", "mc")) {
			t.Errorf("work span = parent %d attrs %+v, want parent %d attrs [leg=mc]", s.parent, s.attrs, root.id)
		}
	}

	// Without a parent the phase is histogram-only but still timed.
	if d := c.Phase(nil, "work").End(); d <= 0 {
		t.Errorf("parentless phase returned %v", d)
	}
	if got := c.Report().Phases[0].Count; got != 2 {
		t.Errorf("work count = %d, want 2", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Observe("p", time.Microsecond)
				c.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	r := c.Report()
	if r.Phases[0].Count != 800 || r.Counters[0].Value != 800 {
		t.Errorf("lost updates: %+v", r)
	}
}

func TestReportSortedAndJSONSchema(t *testing.T) {
	c := New()
	c.Observe("zeta", time.Millisecond)
	c.Observe("alpha", time.Millisecond)
	c.Add("z_count", 1)
	c.Add("a_count", 2)
	r := c.Report()
	if r.Phases[0].Name != "alpha" || r.Phases[1].Name != "zeta" {
		t.Errorf("phases unsorted: %+v", r.Phases)
	}
	if r.Counters[0].Name != "a_count" {
		t.Errorf("counters unsorted: %+v", r.Counters)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Phases []struct {
			Name    string `json:"name"`
			Count   int64  `json:"count"`
			TotalNS int64  `json:"total_ns"`
			AvgNS   int64  `json:"avg_ns"`
			MaxNS   int64  `json:"max_ns"`
		} `json:"phases"`
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("schema: %v\n%s", err, buf.String())
	}
	if len(decoded.Phases) != 2 || decoded.Phases[0].Name != "alpha" || decoded.Counters[1].Value != 1 {
		t.Errorf("decoded: %+v", decoded)
	}
}

func TestWriteTable(t *testing.T) {
	c := New()
	c.Observe("partition", 3*time.Millisecond)
	c.Add("pairs", 42)
	var buf bytes.Buffer
	c.Report().WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"phase", "partition", "counter", "pairs", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestGaugeCounterNoCollision: a counter and a gauge sharing a name
// must surface as two distinct entries (Counters vs Gauges), never as
// two ambiguous same-named rows in one list.
func TestGaugeCounterNoCollision(t *testing.T) {
	c := New()
	c.Add("workers", 3)
	c.Max("workers", 8)
	r := c.Report()
	if len(r.Counters) != 1 || r.Counters[0].Name != "workers" || r.Counters[0].Value != 3 {
		t.Errorf("counters: %+v", r.Counters)
	}
	if len(r.Gauges) != 1 || r.Gauges[0].Name != "workers" || r.Gauges[0].Value != 8 {
		t.Errorf("gauges: %+v", r.Gauges)
	}
}

// TestConcurrentAllRecorders hammers every recording entry point from
// many goroutines; run under -race this is the collector's
// thread-safety gate.
func TestConcurrentAllRecorders(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Phase(nil, "timed").End()
				c.Observe("phase", time.Duration(i+1))
				c.Add("count", 1)
				c.Max("peak", int64(g*1000+i))
				c.Hist("dist", int64(i))
				if i%50 == 0 {
					_ = c.Report() // snapshots race recording
				}
			}
		}(g)
	}
	wg.Wait()
	r := c.Report()
	if r.Phases[0].Count != 1600 { // "phase": 8*200
		t.Errorf("lost phase updates: %+v", r.Phases)
	}
	var dist HistStat
	for _, h := range r.Hists {
		if h.Name == "dist" {
			dist = h
		}
	}
	if dist.Count != 1600 {
		t.Errorf("lost hist updates: %+v", dist)
	}
	if len(r.Gauges) != 1 || r.Gauges[0].Value != 7199 {
		t.Errorf("gauge: %+v", r.Gauges)
	}
}

// TestReportJSONDeterministic: identical recorded state must serialize
// to identical bytes regardless of insertion order — reports are
// diffed and checkpointed, so byte stability is part of the contract.
func TestReportJSONDeterministic(t *testing.T) {
	build := func(order []int) []byte {
		c := New()
		names := []string{"zeta", "alpha", "mid"}
		for _, i := range order {
			c.Observe(names[i], time.Duration(10*(i+1)))
			c.Add("c_"+names[i], int64(i+1))
			c.Max("g_"+names[i], int64(i+10))
			c.Hist("h_"+names[i], int64(i+100))
		}
		var buf bytes.Buffer
		if err := c.Report().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 1, 0})
	if !bytes.Equal(a, b) {
		t.Errorf("insertion order leaked into JSON:\n%s\nvs\n%s", a, b)
	}
}

// TestMergeCumulative: merging a saved report then recording more must
// report cumulative totals — the -resume path's obs contract.
func TestMergeCumulative(t *testing.T) {
	before := New()
	before.Observe("partition", 100)
	before.Add("checkpoint_writes", 4)
	before.Max("rb_workers", 6)

	after := New()
	if err := after.Merge(before.Report()); err != nil {
		t.Fatal(err)
	}
	after.Observe("partition", 300)
	after.Add("checkpoint_writes", 2)
	after.Max("rb_workers", 3)

	r := after.Report()
	if r.Phases[0].Count != 2 || r.Phases[0].TotalNS != 400 || r.Phases[0].MaxNS != 300 {
		t.Errorf("phases not cumulative: %+v", r.Phases[0])
	}
	if r.Counters[0].Value != 6 {
		t.Errorf("counter not cumulative: %+v", r.Counters[0])
	}
	if r.Gauges[0].Value != 6 {
		t.Errorf("gauge lost pre-resume max: %+v", r.Gauges[0])
	}
}
