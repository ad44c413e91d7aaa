package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPromMetricsHandler: the shared /metrics handler serves the
// plain JSON report by default and, with ?format=prom, valid
// exposition carrying both the report's families and the go_*
// runtime samples.
func TestPromMetricsHandler(t *testing.T) {
	c := New()
	c.Add("requests", 3)
	c.Phase(nil, "partition").End()
	h := MetricsHandler(c.Report)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var rep Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("JSON body: %v\n%s", err, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON content type = %q", ct)
	}
	if len(rep.Counters) != 1 || rep.Counters[0].Name != "requests" || len(rep.Phases) != 1 {
		t.Errorf("JSON report = %+v, want the collector's report", rep)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prom", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prom content type = %q", ct)
	}
	sum, err := ValidateProm(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, rec.Body.String())
	}
	for _, fam := range []string{"requests_total", "partition", "go_sched_goroutines_goroutines"} {
		if sum.Names[fam] == 0 {
			t.Errorf("exposition lacks family %s", fam)
		}
	}
}

// TestWritePrometheusGolden pins the exact exposition rendered for a
// small fixed collector: counters as _total, gauges bare, histograms
// as cumulative sparse buckets closed by +Inf with _sum/_count.
func TestWritePrometheusGolden(t *testing.T) {
	c := New()
	c.Add("requests", 3)
	c.Max("peak_workers", 2)
	c.Hist("latency", 1)
	c.Hist("latency", 5)
	c.Hist("latency", 100)

	var sb strings.Builder
	if err := c.Report().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP requests_total obs counter requests
# TYPE requests_total counter
requests_total 3
# HELP peak_workers obs gauge peak_workers
# TYPE peak_workers gauge
peak_workers 2
# HELP latency obs histogram latency (phase histograms hold nanoseconds)
# TYPE latency histogram
latency_bucket{le="1"} 1
latency_bucket{le="5"} 2
latency_bucket{le="111"} 3
latency_bucket{le="+Inf"} 3
latency_sum 106
latency_count 3
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}

	sum, err := ValidateProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ValidateProm on own output: %v", err)
	}
	if sum.Histograms != 1 || sum.Families != 3 {
		t.Fatalf("summary = %+v, want 3 families / 1 histogram", sum)
	}
	if sum.Names["latency"] != 6 {
		t.Fatalf("latency sample count = %d, want 6 (4 buckets + sum + count)", sum.Names["latency"])
	}
}

// TestWritePrometheusPhases checks that a report with phases still
// validates: the phase's histogram carries its
// count/sum, and the exposition stays parseable end to end.
func TestWritePrometheusPhases(t *testing.T) {
	c := New()
	c.Observe("partition", 5*time.Millisecond)
	c.Observe("partition", 7*time.Millisecond)
	c.Add("serve_jobs_accepted", 2)

	var sb strings.Builder
	if err := c.Report().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	sum, err := ValidateProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ValidateProm: %v\n%s", err, sb.String())
	}
	if sum.Names["partition"] == 0 {
		t.Fatalf("partition histogram missing from exposition:\n%s", sb.String())
	}
}

// TestWritePrometheusRuntime renders the runtime/metrics samples and
// revalidates them.
func TestWritePrometheusRuntime(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheusRuntime(&sb); err != nil {
		t.Fatalf("WritePrometheusRuntime: %v", err)
	}
	sum, err := ValidateProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ValidateProm: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"go_sched_goroutines_goroutines", "go_gc_cycles_total_gc_cycles_total"} {
		if sum.Names[want] == 0 {
			t.Errorf("runtime exposition missing %s:\n%s", want, sb.String())
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve_job_wall":    "serve_job_wall",
		"serve/job wall:ns": "serve_job_wall:ns",
		"9lives":            "_9lives",
		"":                  "_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestValidatePromRejects drives the validator through the malformed
// expositions it exists to catch.
func TestValidatePromRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"bad metric name", "0bad 1\n", "invalid metric name"},
		{"bad value", "m notanumber\n", "bad value"},
		{"bad TYPE", "# TYPE m weird\nm 1\n", "unknown TYPE"},
		{"TYPE after samples", "m 1\n# TYPE m counter\n", "after its samples"},
		{"duplicate TYPE", "# TYPE m counter\n# TYPE m gauge\nm 1\n", "duplicate TYPE"},
		{"negative counter", "# TYPE m counter\nm -1\n", "want finite >= 0"},
		{"unterminated labels", `m{a="x` + "\n", "unterminated"},
		{"junk after label value", `m{a="x" 1` + "\n", "label without '='"},
		{"bad label name", `m{0a="x"} 1` + "\n", "invalid label name"},
		{
			"non-monotone le",
			"# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
			"strictly increasing",
		},
		{
			"decreasing cumulative",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 3\nh_count 3\n",
			"non-decreasing",
		},
		{
			"missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_sum 2\nh_count 1\n",
			"want +Inf",
		},
		{
			"+Inf != count",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 2\nh_count 3\n",
			"!= _count",
		},
		{
			"bucket without le",
			"# TYPE h histogram\nh_bucket 2\nh_sum 2\nh_count 2\n",
			"without le label",
		},
		{
			"histogram without sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
			"missing _sum or _count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateProm(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ValidateProm accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidatePromAccepts covers legal corners: timestamps, escaped
// label values, bare comments, untyped samples, labeled histograms.
func TestValidatePromAccepts(t *testing.T) {
	in := `# scraped by test
# TYPE h histogram
h_bucket{job="a b",le="1"} 1
h_bucket{job="a b",le="+Inf"} 2
h_sum{job="a b"} 3
h_count{job="a b"} 2
untyped_metric{note="say \"hi\",ok"} 4.5 1700000000000
`
	sum, err := ValidateProm(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ValidateProm: %v", err)
	}
	if sum.Lines != 5 || sum.Families != 2 {
		t.Fatalf("summary = %+v, want 5 lines / 2 families", sum)
	}
}
