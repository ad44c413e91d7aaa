package obs

// Prometheus text exposition (format version 0.0.4) for the obs
// report, plus the stdlib-only validator behind tools/promcheck.
//
// WritePrometheus renders a Report deterministically: counters as
// <name>_total, gauges as <name>, and the fixed log-bucket histograms
// as cumulative <name>_bucket{le="..."} series with _sum and _count —
// the native Prometheus histogram shape, so rate() and
// histogram_quantile() work out of the box. Bucket upper bounds come
// from the report's [lo, hi) ranges: a bucket holding lo <= v < hi is
// exactly "v <= hi-1" for the integer-valued observations this layer
// records, so le = hi-1 is lossless. Only non-empty buckets are
// emitted (the fixed layout has 248; sparse cumulative output is
// valid exposition), closed by the mandatory +Inf bucket.
//
// WritePrometheusRuntime appends a small fixed set of runtime/metrics
// samples (heap, GC, goroutines) under go_* names, for scrapes that
// want process health next to the serving metrics. MetricsHandler is
// the /metrics endpoint both servers mount on top of the two writers.
//
// ValidateProm is the inverse gate: exposition-format parse, TYPE
// discipline, and — the property the histograms above must uphold —
// strictly increasing le bounds with non-decreasing cumulative counts
// ending in a +Inf bucket that equals _count.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// promName sanitizes a metric name into the Prometheus alphabet
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// errWriter latches the first write error so the render loop stays
// linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// WritePrometheus renders the report in Prometheus text exposition
// format. Output is deterministic: the report's slices are sorted by
// name, and bucket order follows the fixed histogram layout.
func (r Report) WritePrometheus(w io.Writer) error {
	ew := &errWriter{w: w}
	for _, c := range r.Counters {
		name := promName(c.Name) + "_total"
		ew.printf("# HELP %s obs counter %s\n", name, c.Name)
		ew.printf("# TYPE %s counter\n", name)
		ew.printf("%s %d\n", name, c.Value)
	}
	for _, g := range r.Gauges {
		name := promName(g.Name)
		ew.printf("# HELP %s obs gauge %s\n", name, g.Name)
		ew.printf("# TYPE %s gauge\n", name)
		ew.printf("%s %d\n", name, g.Value)
	}
	for _, h := range r.Hists {
		name := promName(h.Name)
		ew.printf("# HELP %s obs histogram %s (phase histograms hold nanoseconds)\n", name, h.Name)
		ew.printf("# TYPE %s histogram\n", name)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			// [lo, hi) over integers is exactly "<= hi-1".
			ew.printf("%s_bucket{le=\"%d\"} %d\n", name, b.Hi-1, cum)
		}
		ew.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		ew.printf("%s_sum %d\n", name, h.Sum)
		ew.printf("%s_count %d\n", name, h.Count)
	}
	return ew.err
}

// runtimePromSamples is the fixed runtime/metrics set exported by
// WritePrometheusRuntime; counters (monotone totals) get a _total
// suffix and "counter" type.
var runtimePromSamples = []struct {
	metric  string
	counter bool
}{
	{"/memory/classes/heap/objects:bytes", false},
	{"/memory/classes/total:bytes", false},
	{"/gc/cycles/total:gc-cycles", true},
	{"/gc/heap/allocs:bytes", true},
	{"/sched/goroutines:goroutines", false},
}

// WritePrometheusRuntime appends the fixed runtime/metrics sample set
// as go_* series in exposition format.
func WritePrometheusRuntime(w io.Writer) error {
	samples := make([]metrics.Sample, len(runtimePromSamples))
	for i, s := range runtimePromSamples {
		samples[i].Name = s.metric
	}
	metrics.Read(samples)
	ew := &errWriter{w: w}
	runtimeRepl := strings.NewReplacer("/", "_", ":", "_", "-", "_")
	for i, s := range samples {
		name := "go_" + promName(runtimeRepl.Replace(strings.TrimPrefix(s.Name, "/")))
		typ := "gauge"
		if runtimePromSamples[i].counter {
			name += "_total"
			typ = "counter"
		}
		var v float64
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v = s.Value.Float64()
		default:
			continue
		}
		ew.printf("# HELP %s runtime/metrics %s\n", name, s.Name)
		ew.printf("# TYPE %s %s\n", name, typ)
		ew.printf("%s %v\n", name, v)
	}
	return ew.err
}

// MetricsHandler serves the report that report returns per request:
// as JSON (Report.WriteJSON) by default, and with ?format=prom as
// Prometheus text exposition followed by the WritePrometheusRuntime
// samples.
func MetricsHandler(report func() Report) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := report()
		// The connection is the only sink for write errors.
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = rep.WritePrometheus(w)
			_ = WritePrometheusRuntime(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rep.WriteJSON(w)
	})
}

// PromSummary is what ValidateProm learned about an exposition.
type PromSummary struct {
	Lines      int            // non-empty, non-comment sample lines
	Families   int            // distinct metric families seen
	Histograms int            // families typed histogram
	Names      map[string]int // family name -> sample count
}

// promHistCheck accumulates one histogram series (per family and
// per non-le label set) for the monotonicity checks.
type promHistCheck struct {
	family   string
	les      []float64
	cums     []float64
	sum      bool
	count    bool
	countVal float64
}

// ValidateProm checks that r holds well-formed Prometheus text
// exposition: valid metric/label names, parseable values, at most one
// TYPE per family declared before its samples, counters non-negative,
// and every histogram family with strictly increasing le bounds,
// non-decreasing cumulative bucket counts, and a final +Inf bucket
// equal to _count. It is the library behind tools/promcheck.
func ValidateProm(r io.Reader) (PromSummary, error) {
	sum := PromSummary{Names: map[string]int{}}
	types := map[string]string{}         // family -> declared type
	sampled := map[string]bool{}         // family -> has samples
	hists := map[string]*promHistCheck{} // family|labels -> series check
	var histOrder []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				if len(fields) < 3 || !validPromName(fields[2]) {
					return sum, fmt.Errorf("promcheck: line %d: %s without a valid metric name", lineNo, fields[1])
				}
				if fields[1] == "TYPE" {
					if len(fields) < 4 {
						return sum, fmt.Errorf("promcheck: line %d: TYPE %s without a type", lineNo, fields[2])
					}
					typ := strings.TrimSpace(fields[3])
					switch typ {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return sum, fmt.Errorf("promcheck: line %d: unknown TYPE %q for %s", lineNo, typ, fields[2])
					}
					if prev, ok := types[fields[2]]; ok {
						return sum, fmt.Errorf("promcheck: line %d: duplicate TYPE for %s (already %s)", lineNo, fields[2], prev)
					}
					if sampled[fields[2]] {
						return sum, fmt.Errorf("promcheck: line %d: TYPE for %s after its samples", lineNo, fields[2])
					}
					types[fields[2]] = typ
				}
			}
			continue // other comments are legal and ignored
		}

		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return sum, fmt.Errorf("promcheck: line %d: %w", lineNo, err)
		}
		sum.Lines++
		family, suffix := promFamily(name, types)
		sampled[family] = true
		sum.Names[family]++

		typ := types[family]
		if typ == "counter" && (math.IsNaN(value) || value < 0) {
			return sum, fmt.Errorf("promcheck: line %d: counter %s = %v, want finite >= 0", lineNo, name, value)
		}
		if typ == "histogram" {
			other, le, hasLE, err := splitLE(labels)
			if err != nil {
				return sum, fmt.Errorf("promcheck: line %d: %w", lineNo, err)
			}
			key := family + "\x00" + other
			hc := hists[key]
			if hc == nil {
				hc = &promHistCheck{family: family}
				hists[key] = hc
				histOrder = append(histOrder, key)
			}
			switch suffix {
			case "_bucket":
				if !hasLE {
					return sum, fmt.Errorf("promcheck: line %d: %s_bucket without le label", lineNo, family)
				}
				hc.les = append(hc.les, le)
				hc.cums = append(hc.cums, value)
			case "_sum":
				hc.sum = true
			case "_count":
				hc.count = true
				hc.countVal = value
			default:
				return sum, fmt.Errorf("promcheck: line %d: sample %s of histogram family %s is none of _bucket/_sum/_count", lineNo, name, family)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}

	// Per-series histogram discipline, in first-appearance order.
	for _, key := range histOrder {
		hc := hists[key]
		if len(hc.les) == 0 {
			return sum, fmt.Errorf("promcheck: histogram %s has no buckets", hc.family)
		}
		for i := range hc.les {
			if i > 0 && !(hc.les[i] > hc.les[i-1]) {
				return sum, fmt.Errorf("promcheck: histogram %s: le %v after %v, want strictly increasing", hc.family, hc.les[i], hc.les[i-1])
			}
			if i > 0 && hc.cums[i] < hc.cums[i-1] {
				return sum, fmt.Errorf("promcheck: histogram %s: cumulative bucket count %v after %v, want non-decreasing", hc.family, hc.cums[i], hc.cums[i-1])
			}
		}
		last := hc.les[len(hc.les)-1]
		if !math.IsInf(last, +1) {
			return sum, fmt.Errorf("promcheck: histogram %s: last bucket le=%v, want +Inf", hc.family, last)
		}
		if !hc.sum || !hc.count {
			return sum, fmt.Errorf("promcheck: histogram %s missing _sum or _count", hc.family)
		}
		if inf := hc.cums[len(hc.cums)-1]; inf != hc.countVal {
			return sum, fmt.Errorf("promcheck: histogram %s: +Inf bucket %v != _count %v", hc.family, inf, hc.countVal)
		}
	}

	sum.Families = len(sampled)
	for _, t := range types {
		if t == "histogram" {
			sum.Histograms++
		}
	}
	return sum, nil
}

// promFamily strips the histogram/summary sample suffix when the base
// name was declared with a compound type.
func promFamily(name string, types map[string]string) (family, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if t := types[base]; t == "histogram" || t == "summary" {
			return base, suf
		}
	}
	return name, ""
}

// validPromName reports whether s is a legal metric name.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validPromLabel reports whether s is a legal label name.
func validPromLabel(s string) bool {
	if s == "" || !validPromName(s) {
		return false
	}
	return !strings.Contains(s, ":")
}

// parsePromSample parses one sample line: name[{labels}] value [ts].
// labels is returned in source order as a single canonical string
// (promcheck only needs it as a grouping key plus the le value).
func parsePromSample(line string) (name, labels string, value float64, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	name = line[:i]
	if !validPromName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := scanLabels(rest)
		if err != nil {
			return "", "", 0, fmt.Errorf("%s: %w", name, err)
		}
		labels = rest[1 : end-1]
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("%s: want value [timestamp], got %q", name, strings.TrimSpace(rest))
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("%s: bad value %q", name, fields[0])
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", "", 0, fmt.Errorf("%s: bad timestamp %q", name, fields[1])
		}
	}
	return name, labels, value, nil
}

// scanLabels returns the index just past the closing '}' of a label
// block starting at s[0] == '{', validating pair syntax.
func scanLabels(s string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		j := i
		for j < len(s) && s[j] != '=' && s[j] != '}' {
			j++
		}
		if j >= len(s) || s[j] != '=' {
			return 0, fmt.Errorf("label without '='")
		}
		if !validPromLabel(strings.TrimSpace(s[i:j])) {
			return 0, fmt.Errorf("invalid label name %q", s[i:j])
		}
		j++ // past '='
		if j >= len(s) || s[j] != '"' {
			return 0, fmt.Errorf("label value not quoted")
		}
		j++
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		j++ // past closing quote
		if j < len(s) && s[j] == ',' {
			j++
		}
		i = j
	}
}

// splitLE separates the le label from the rest of a label block,
// returning the remaining labels as a canonical (sorted) key.
func splitLE(labels string) (other string, le float64, hasLE bool, err error) {
	if labels == "" {
		return "", 0, false, nil
	}
	var rest []string
	for _, pair := range splitLabelPairs(labels) {
		eq := strings.IndexByte(pair, '=')
		k := strings.TrimSpace(pair[:eq])
		v := strings.Trim(pair[eq+1:], `"`)
		if k == "le" {
			le, err = strconv.ParseFloat(v, 64)
			if err != nil {
				return "", 0, false, fmt.Errorf("bad le %q", v)
			}
			hasLE = true
			continue
		}
		rest = append(rest, pair)
	}
	sort.Strings(rest)
	return strings.Join(rest, ","), le, hasLE, nil
}

// splitLabelPairs splits "a=\"x\",b=\"y\"" on commas outside quotes.
func splitLabelPairs(labels string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	if start < len(labels) {
		out = append(out, labels[start:])
	}
	return out
}
