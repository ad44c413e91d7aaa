package obs

import (
	"testing"
)

func TestHistBucketRoundTrip(t *testing.T) {
	// Every probe value must land in a bucket whose bounds contain it.
	probes := []int64{-5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 100,
		1000, 1 << 20, (1 << 40) + 12345, 1<<62 + 7}
	for _, v := range probes {
		b := histBucket(v)
		lo, hi := histBounds(b)
		if b == 0 {
			if v >= 1 {
				t.Errorf("v=%d landed in bucket 0", v)
			}
			continue
		}
		if v < lo || v >= hi {
			t.Errorf("v=%d -> bucket %d [%d,%d) does not contain it", v, b, lo, hi)
		}
	}
	// Bucket indexes are monotonic in v and bounds tile without gaps.
	prev := -1
	for b := 1; b < numHistBuckets; b++ {
		lo, hi := histBounds(b)
		if hi <= lo {
			t.Fatalf("bucket %d: empty range [%d,%d)", b, lo, hi)
		}
		if prevLo, prevHi := histBounds(b - 1); b > 1 && lo != prevHi {
			t.Fatalf("gap between bucket %d [%d,%d) and %d [%d,%d)", b-1, prevLo, prevHi, b, lo, hi)
		}
		if got := histBucket(lo); got != b {
			t.Fatalf("histBucket(lo=%d) = %d, want %d", lo, got, b)
		}
		_ = prev
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.observe(v)
	}
	if h.count != 1000 || h.min != 1 || h.max != 1000 {
		t.Fatalf("stats: count=%d min=%d max=%d", h.count, h.min, h.max)
	}
	// Bucket quantiles overshoot by at most ~25% (one sub-bucket width).
	checks := []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}}
	for _, c := range checks {
		got := h.quantile(c.q)
		if got < c.want || float64(got) > float64(c.want)*1.30 {
			t.Errorf("q%.2f = %d, want in [%d, %d]", c.q, got, c.want, int64(float64(c.want)*1.30))
		}
	}
	if got := h.quantile(1.0); got != 1000 {
		t.Errorf("q1.00 = %d, want clamped to max 1000", got)
	}

	var single hist
	single.observe(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := single.quantile(q); got != 7 {
			t.Errorf("single-sample q%.2f = %d, want 7", q, got)
		}
	}
}

func TestHistMergeExact(t *testing.T) {
	// Merging a report into a fresh collector must reproduce the
	// original distribution exactly — the checkpoint-resume invariant.
	a := New()
	for v := int64(1); v <= 500; v += 3 {
		a.Hist("msg_items", v)
	}
	a.Hist("msg_items", 1<<30)

	b := New()
	for v := int64(2); v <= 500; v += 5 {
		b.Hist("msg_items", v)
	}

	merged := New()
	if err := merged.Merge(a.Report()); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(b.Report()); err != nil {
		t.Fatal(err)
	}

	// Reference: one collector fed both streams directly.
	ref := New()
	for v := int64(1); v <= 500; v += 3 {
		ref.Hist("msg_items", v)
	}
	ref.Hist("msg_items", 1<<30)
	for v := int64(2); v <= 500; v += 5 {
		ref.Hist("msg_items", v)
	}

	got, want := merged.Report().Hists, ref.Report().Hists
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("hists: got %d, want 1", len(got))
	}
	g, w := got[0], want[0]
	if g.Count != w.Count || g.Sum != w.Sum || g.Min != w.Min || g.Max != w.Max ||
		g.P50 != w.P50 || g.P90 != w.P90 || g.P99 != w.P99 {
		t.Errorf("merged stat mismatch:\n got %+v\nwant %+v", g, w)
	}
	if len(g.Buckets) != len(w.Buckets) {
		t.Fatalf("bucket count: got %d, want %d", len(g.Buckets), len(w.Buckets))
	}
	for i := range g.Buckets {
		if g.Buckets[i] != w.Buckets[i] {
			t.Errorf("bucket %d: got %+v, want %+v", i, g.Buckets[i], w.Buckets[i])
		}
	}
}

func TestHistMergeRejectsBadIndex(t *testing.T) {
	c := New()
	err := c.Merge(Report{Hists: []HistStat{{
		Name: "bad", Count: 1, Buckets: []HistBucket{{Index: numHistBuckets + 5, Count: 1}},
	}}})
	if err == nil {
		t.Fatal("out-of-range bucket index accepted")
	}
}

func TestObserveFeedsHistogram(t *testing.T) {
	c := New()
	c.Observe("global_search", 1000)
	c.Observe("global_search", 2000)
	r := c.Report()
	if len(r.Hists) != 1 || r.Hists[0].Name != "global_search" {
		t.Fatalf("phase did not feed a histogram: %+v", r.Hists)
	}
	h := r.Hists[0]
	if h.Count != 2 || h.Min != 1000 || h.Max != 2000 {
		t.Errorf("hist stat: %+v", h)
	}
	if h.P50 < 1000 || h.P99 < 1000 {
		t.Errorf("quantiles: %+v", h)
	}
}

func TestSparkline(t *testing.T) {
	c := New()
	for i := int64(0); i < 100; i++ {
		c.Hist("sizes", 10+i%50)
	}
	st := c.Report().Hists[0]
	line := sparkline(st, 16)
	if line == "" || len([]rune(line)) > 16 {
		t.Errorf("sparkline = %q (%d runes)", line, len([]rune(line)))
	}
	if sparkline(HistStat{}, 16) != "" {
		t.Error("empty histogram rendered a sparkline")
	}
}
