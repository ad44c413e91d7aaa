package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Error-path coverage for the checkpoint-resume fold: Merge must
// reject reports whose histogram bucket indexes fall outside the
// fixed layout, and must stay exact on the good path.

func TestHistMergeRejectsBadBucketIndex(t *testing.T) {
	for _, idx := range []int{-1, numHistBuckets, numHistBuckets + 17} {
		var h hist
		err := h.merge(HistStat{
			Name: "serve_job_wall", Count: 1, Sum: 5, Min: 5, Max: 5,
			Buckets: []HistBucket{{Index: idx, Count: 1}},
		})
		if err == nil {
			t.Fatalf("merge accepted bucket index %d", idx)
		}
		if !strings.Contains(err.Error(), "bucket index") || !strings.Contains(err.Error(), "serve_job_wall") {
			t.Fatalf("error %q should name the histogram and the bad index", err)
		}
	}
}

func TestHistMergeEmptyStatIsNoop(t *testing.T) {
	var h hist
	h.observe(9)
	// Count == 0 short-circuits before the (bogus) buckets are read:
	// an empty checkpoint section merges as a no-op.
	if err := h.merge(HistStat{Name: "x", Buckets: []HistBucket{{Index: -5, Count: 1}}}); err != nil {
		t.Fatalf("empty stat merge: %v", err)
	}
	if h.count != 1 || h.sum != 9 {
		t.Fatalf("empty merge mutated state: count %d sum %d", h.count, h.sum)
	}
}

func TestCollectorMergePropagatesHistError(t *testing.T) {
	c := New()
	bad := Report{
		Counters: []CounterStat{{Name: "serve_jobs_accepted", Value: 3}},
		Hists: []HistStat{{
			Name: "latency", Count: 2, Sum: 10, Min: 3, Max: 7,
			Buckets: []HistBucket{{Index: numHistBuckets + 1, Count: 2}},
		}},
	}
	if err := c.Merge(bad); err == nil {
		t.Fatal("Merge accepted an out-of-range bucket index")
	}
	// The counter section merged before the histogram failed; Merge is
	// not transactional, and the resume path treats any error as fatal.
	r := c.Report()
	if len(r.Counters) != 1 || r.Counters[0].Value != 3 {
		t.Fatalf("counters after failed merge = %+v", r.Counters)
	}
}

func TestCollectorMergeNil(t *testing.T) {
	var c *Collector
	if err := c.Merge(Report{Hists: []HistStat{{Name: "x", Count: 1, Buckets: []HistBucket{{Index: -1, Count: 1}}}}}); err != nil {
		t.Fatalf("nil collector Merge: %v", err)
	}
}

// TestCollectorMergeRoundTrip pins the good path end to end: a
// report of phases, counters, gauges, and plain histograms, merged
// into a fresh collector, reports the same JSON byte for byte — the
// phase marks survive the fold and plain histograms do not become
// phases.
func TestCollectorMergeRoundTrip(t *testing.T) {
	a := New()
	a.Observe("partition", 3*time.Millisecond)
	a.Observe("partition", 5*time.Millisecond)
	a.Observe("metric_eval", 40*time.Microsecond)
	a.Add("cut", 17)
	a.Max("peak", 4)
	a.Hist("sizes", 100)
	a.Hist("sizes", 1000)

	b := New()
	if err := b.Merge(a.Report()); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	ja, jb := reportJSON(t, a.Report()), reportJSON(t, b.Report())
	if !bytes.Equal(ja, jb) {
		t.Fatalf("report diverged after merge:\n a %s\n b %s", ja, jb)
	}
	if r := b.Report(); len(r.Phases) != 2 || len(r.Hists) != 3 {
		t.Fatalf("merged report has %d phases, %d hists; want 2, 3", len(r.Phases), len(r.Hists))
	}
}

// TestPhaseStatIsHistView pins the one-record invariant: every
// PhaseStat equals its same-named histogram's count, sum, and max,
// whether the samples came from Phase, Observe, or Merge.
func TestPhaseStatIsHistView(t *testing.T) {
	c := New()
	c.Phase(nil, "tree_induction").End()
	c.Observe("partition", 2*time.Millisecond)
	c.Observe("partition", 9*time.Millisecond)
	c.Hist("sizes", 7)
	saved := New()
	saved.Observe("partition", 4*time.Millisecond)
	saved.Observe("drift_eval", 30*time.Microsecond)
	if err := c.Merge(saved.Report()); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	hists := map[string]HistStat{}
	for _, h := range r.Hists {
		hists[h.Name] = h
	}
	if len(r.Phases) != 3 {
		t.Fatalf("phases = %+v, want drift_eval, partition, tree_induction", r.Phases)
	}
	for _, p := range r.Phases {
		h, ok := hists[p.Name]
		if !ok {
			t.Fatalf("phase %q has no histogram", p.Name)
		}
		if p.Count != h.Count || p.TotalNS != h.Sum || p.MaxNS != h.Max || p.AvgNS != h.Sum/h.Count {
			t.Errorf("phase %+v is not a view of its histogram %+v", p, h)
		}
	}
}

func TestCollectorMergeRejectsPhaseWithoutHist(t *testing.T) {
	err := New().Merge(Report{Phases: []PhaseStat{{Name: "partition", Count: 1, TotalNS: 5, AvgNS: 5, MaxNS: 5}}})
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("Merge of a phase without a histogram: err = %v", err)
	}
}

func reportJSON(t *testing.T, r Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
