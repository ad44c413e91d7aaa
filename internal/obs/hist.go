package obs

// Fixed log-spaced-bucket histograms for latency and size
// distributions. Buckets are octaves of 2 subdivided into 4
// sub-buckets (two significant bits, ~25% relative resolution), so
// recording is a few shifts plus one array increment — no allocation
// after the histogram exists — and the layout is identical on every
// platform, which keeps reports byte-stable. Quantiles are reported
// as the upper bound of the bucket holding the target rank
// (deterministic, pessimistic by at most one bucket width).

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// numHistBuckets covers all of int64: bucket 0 is v <= 0, buckets
// 1..3 are exact small values, and 4 sub-buckets per octave follow
// (bit lengths 3..63, i.e. 61 octaves).
const numHistBuckets = 4 + 4*61

// hist is the in-collector histogram state. A phase histogram (one
// fed by Observe) holds nanoseconds and is also the phase's only
// record: Report derives its PhaseStat from count, sum, and max.
type hist struct {
	count, sum int64
	min, max   int64
	buckets    [numHistBuckets]int64
	phase      bool
}

// histBucket returns the bucket index for v.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	if v < 4 {
		return int(v)
	}
	n := bits.Len64(uint64(v)) // >= 3
	sub := (v >> (n - 3)) & 3
	b := 4 + 4*(n-3) + int(sub)
	if b >= numHistBuckets {
		return numHistBuckets - 1
	}
	return b
}

// histBounds returns bucket b's value range [lo, hi): values v with
// lo <= v < hi land in b. Bucket 0 is (-inf, 1).
func histBounds(b int) (lo, hi int64) {
	switch {
	case b <= 0:
		return 0, 1
	case b < 4:
		return int64(b), int64(b) + 1
	}
	oct := (b - 4) / 4 // octave: values in [2^(oct+2), 2^(oct+3))
	sub := int64((b - 4) % 4)
	width := int64(1) << oct
	lo = (4 + sub) * width
	hi = lo + width
	if hi < lo { // top bucket: lo+width overflows int64
		hi = math.MaxInt64
	}
	return lo, hi
}

func (h *hist) observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[histBucket(v)]++
}

// quantile returns the upper bound of the bucket holding the q-th
// quantile (0 <= q <= 1), clamped to the observed max.
func (h *hist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count-1))
	var seen int64
	for b := 0; b < numHistBuckets; b++ {
		seen += h.buckets[b]
		if seen > rank {
			_, hi := histBounds(b)
			v := hi - 1
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// HistBucket is one non-empty histogram bucket in a Report. Index is
// the internal bucket index (stable across platforms and versions of
// the fixed layout), Lo/Hi its value range [Lo, Hi), Count the
// observations in it.
type HistBucket struct {
	Index int   `json:"i"`
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"n"`
}

// HistStat is one histogram's aggregate in a Report. Values are
// unit-agnostic int64s; phase histograms hold nanoseconds.
// P50/P90/P99 are bucket upper bounds (<= one bucket width above the
// true quantile).
type HistStat struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P99     int64        `json:"p99"`
	Buckets []HistBucket `json:"buckets"`
}

// stat snapshots the histogram (caller holds the collector lock).
func (h *hist) stat(name string) HistStat {
	st := HistStat{
		Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		P50: h.quantile(0.50), P90: h.quantile(0.90), P99: h.quantile(0.99),
	}
	for b := 0; b < numHistBuckets; b++ {
		if n := h.buckets[b]; n > 0 {
			lo, hi := histBounds(b)
			st.Buckets = append(st.Buckets, HistBucket{Index: b, Lo: lo, Hi: hi, Count: n})
		}
	}
	return st
}

// Hist records one observation of the named distribution (a message
// size, a per-rank pair count, ...). Phases record their durations
// (in nanoseconds) into their own histograms via Observe.
func (c *Collector) Hist(name string, v int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.histLocked(name).observe(v)
	c.mu.Unlock()
}

// histLocked returns the named histogram, creating it if needed;
// caller holds c.mu.
func (c *Collector) histLocked(name string) *hist {
	if c.hists == nil {
		c.hists = map[string]*hist{}
	}
	h := c.hists[name]
	if h == nil {
		h = &hist{}
		c.hists[name] = h
	}
	return h
}

// sparkline renders the histogram's non-empty bucket span as a
// fixed-width block-glyph distribution for WriteTable.
func sparkline(st HistStat, width int) string {
	if len(st.Buckets) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	first := st.Buckets[0].Index
	last := st.Buckets[len(st.Buckets)-1].Index
	span := last - first + 1
	if span < width {
		width = span
	}
	cells := make([]int64, width)
	for _, b := range st.Buckets {
		cell := (b.Index - first) * width / span
		cells[cell] += b.Count
	}
	var peak int64
	for _, n := range cells {
		if n > peak {
			peak = n
		}
	}
	var sb strings.Builder
	for _, n := range cells {
		if n == 0 {
			sb.WriteByte(' ')
			continue
		}
		g := int(int64(len(glyphs)-1) * n / peak)
		sb.WriteRune(glyphs[g])
	}
	return sb.String()
}

// merge folds a reported histogram back into the collector's
// state (the checkpoint-resume path). Bucket indexes are part of the
// report schema, so the fold is exact.
func (h *hist) merge(st HistStat) error {
	if st.Count == 0 {
		return nil
	}
	if h.count == 0 || st.Min < h.min {
		h.min = st.Min
	}
	if h.count == 0 || st.Max > h.max {
		h.max = st.Max
	}
	h.count += st.Count
	h.sum += st.Sum
	for _, b := range st.Buckets {
		if b.Index < 0 || b.Index >= numHistBuckets {
			return fmt.Errorf("obs: histogram %q: bucket index %d out of range", st.Name, b.Index)
		}
		h.buckets[b.Index] += b.Count
	}
	return nil
}
