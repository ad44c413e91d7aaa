package server

// Serving-observability tests: the Prometheus exposition endpoint,
// per-job trace retention and retrieval, the flight recorder, the
// /healthz readiness body, and the structured lifecycle/access logs
// (assertable because the logger takes an injected clock).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// getBody GETs a path and returns the status code and raw body.
func getBody(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestHTTPMetricsProm drives jobs through the server and checks that
// GET /metrics?format=prom serves valid exposition carrying the
// serving histogram, the rolling-window gauges, the SLO burn
// counters, and the runtime samples — the acceptance gate promcheck
// applies to a loaded partsrv.
func TestHTTPMetricsProm(t *testing.T) {
	col := obs.New()
	_, ts := newTestAPI(t, Options{Workers: 2, Obs: col, SLOTarget: time.Nanosecond})

	for seed := int64(0); seed < 3; seed++ {
		code, view, _ := postJob(t, ts, graphJob(seed), "")
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		var done JobView
		if code := getJSON(t, ts, "/api/v1/jobs/"+view.ID+"?wait=1", &done); code != http.StatusOK || done.Status != StatusDone {
			t.Fatalf("wait: HTTP %d status %s (%s)", code, done.Status, done.Error)
		}
	}

	code, body := getBody(t, ts, "/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("prom scrape: HTTP %d", code)
	}
	sum, err := obs.ValidateProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape fails promcheck: %v\n%s", err, body)
	}
	for _, want := range []string{
		"serve_job_wall",     // the latency histogram
		"serve_window_count", // rolling-window gauges
		"serve_window_p99_ns",
		"serve_slo_objective_ns",
		"serve_slo_observed_total", // burn counters
		"serve_slo_violations_total",
		"go_sched_goroutines_goroutines", // runtime/metrics samples
	} {
		if sum.Names[want] == 0 {
			t.Errorf("exposition missing family %s", want)
		}
	}
	if sum.Histograms == 0 {
		t.Fatalf("no histogram families in scrape:\n%s", body)
	}

	// The JSON format must carry the same window/SLO series.
	var rep obs.Report
	if code := getJSON(t, ts, "/metrics", &rep); code != http.StatusOK {
		t.Fatalf("json scrape: HTTP %d", code)
	}
	gauges := map[string]int64{}
	for _, g := range rep.Gauges {
		gauges[g.Name] = g.Value
	}
	if _, ok := gauges["serve_window_count"]; !ok {
		t.Fatalf("JSON report missing serve_window_count gauge: %+v", rep.Gauges)
	}
	if gauges["serve_window_count"] != 3 {
		t.Fatalf("window count = %d, want 3", gauges["serve_window_count"])
	}
	counters := map[string]int64{}
	for _, c := range rep.Counters {
		counters[c.Name] = c.Value
	}
	// A 1ns objective makes every completed job a violation.
	if counters["serve_slo_violations"] != 3 || counters["serve_slo_observed"] != 3 {
		t.Fatalf("SLO counters = %+v, want 3/3", counters)
	}
}

// TestHTTPJobTraceGraph checks trace retention end to end for a graph
// job: 409 before terminal is unreachable here (job completes), the
// stream passes the tracecheck validator, and misses 404.
func TestHTTPJobTraceGraph(t *testing.T) {
	_, ts := newTestAPI(t, Options{Workers: 1, TraceRing: 4})

	code, view, _ := postJob(t, ts, graphJob(3), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	var done JobView
	if code := getJSON(t, ts, "/api/v1/jobs/"+view.ID+"?wait=1", &done); code != http.StatusOK || done.Status != StatusDone {
		t.Fatalf("wait: HTTP %d status %s", code, done.Status)
	}

	code, body := getBody(t, ts, "/api/v1/jobs/"+view.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d (%s)", code, body)
	}
	sum, err := obs.ValidateTrace(strings.NewReader(body))
	if err != nil {
		t.Fatalf("trace fails tracecheck: %v", err)
	}
	if sum.Names["job"] == 0 {
		t.Fatalf("trace has no root job span: %+v", sum.Names)
	}

	if code, _ := getBody(t, ts, "/api/v1/jobs/job-999999/trace"); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: HTTP %d, want 404", code)
	}
}

// TestHTTPJobTraceSweep is the acceptance path: a completed sweep
// job's trace must validate and contain the harness snapshot spans.
func TestHTTPJobTraceSweep(t *testing.T) {
	_, ts := newTestAPI(t, Options{Workers: 1, TraceRing: 4})

	spec := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1, Ks: []int{2}, Seed: 9}}
	code, view, _ := postJob(t, ts, spec, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit sweep: HTTP %d", code)
	}
	var done JobView
	if code := getJSON(t, ts, "/api/v1/jobs/"+view.ID+"?wait=1", &done); code != http.StatusOK || done.Status != StatusDone {
		t.Fatalf("wait: HTTP %d status %s (%s)", code, done.Status, done.Error)
	}

	code, body := getBody(t, ts, "/api/v1/jobs/"+view.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("sweep trace: HTTP %d", code)
	}
	sum, err := obs.ValidateTrace(strings.NewReader(body))
	if err != nil {
		t.Fatalf("sweep trace fails tracecheck: %v", err)
	}
	for _, want := range []string{"job", "snapshot"} {
		if sum.Names[want] == 0 {
			t.Errorf("sweep trace missing %q spans (have %+v)", want, sum.Names)
		}
	}
}

// TestHTTPJobTraceDisabled: without a trace ring the endpoint
// reports the miss rather than inventing an empty trace.
func TestHTTPJobTraceDisabled(t *testing.T) {
	s, ts := newTestAPI(t, Options{Workers: 1})
	view := mustSubmit(t, s, graphJob(5))
	wait(t, s, view.ID)
	code, body := getBody(t, ts, "/api/v1/jobs/"+view.ID+"/trace")
	if code != http.StatusNotFound || !strings.Contains(body, "no retained trace") {
		t.Fatalf("disabled ring trace: HTTP %d (%s), want 404", code, body)
	}
}

// TestTraceRingEviction: the ring keeps only the newest N traces.
func TestTraceRingEviction(t *testing.T) {
	s, ts := newTestAPI(t, Options{Workers: 1, TraceRing: 2})
	ids := make([]string, 3)
	for i := range ids {
		view := mustSubmit(t, s, graphJob(int64(100+i)))
		wait(t, s, view.ID)
		ids[i] = view.ID
	}
	if code, _ := getBody(t, ts, "/api/v1/jobs/"+ids[0]+"/trace"); code != http.StatusNotFound {
		t.Fatalf("oldest trace survived a full ring: HTTP %d, want 404", code)
	}
	for _, id := range ids[1:] {
		if code, _ := getBody(t, ts, "/api/v1/jobs/"+id+"/trace"); code != http.StatusOK {
			t.Fatalf("recent trace %s: HTTP %d, want 200", id, code)
		}
	}
}

// TestHTTPDebugEventsFlight drives a shed, a panic, and a drain
// through the server and checks the flight recorder saw all of them —
// on /debug/events and in the panic-triggered stderr dump.
func TestHTTPDebugEventsFlight(t *testing.T) {
	var dump bytes.Buffer
	plan := &fault.Plan{
		Seed:      1,
		StallRank: map[int]fault.Stall{0: {Phase: jobPhase, For: 300 * time.Millisecond}},
		PanicRank: map[int]int{1: jobPhase},
	}
	s, ts := newTestAPI(t, Options{
		Workers: 1, QueueDepth: 1, Fault: plan, FlightDump: &dump,
	})

	// Job 0 stalls in the single worker; job 1 (will panic when run)
	// fills the queue; job 2 sheds.
	first := mustSubmit(t, s, graphJob(0))
	waitForStatus(t, s, first.ID, StatusRunning)
	second := mustSubmit(t, s, graphJob(1))
	if _, err := s.Submit(graphJob(2), ""); err != ErrQueueFull {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	wait(t, s, first.ID)
	if v := wait(t, s, second.ID); v.Status != StatusFailed {
		t.Fatalf("panicking job finished %s", v.Status)
	}

	code, body := getBody(t, ts, "/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events: HTTP %d", code)
	}
	var got struct {
		Cap    int               `json:"cap"`
		Total  int64             `json:"total"`
		Events []obs.FlightEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/debug/events not JSON: %v\n%s", err, body)
	}
	kinds := map[string]int{}
	for _, ev := range got.Events {
		kinds[ev.Kind]++
	}
	if kinds["shed"] != 1 || kinds["panic"] != 1 {
		t.Fatalf("flight kinds = %v, want one shed and one panic", kinds)
	}
	for _, ev := range got.Events {
		if ev.Kind == "panic" && ev.Job != second.ID {
			t.Fatalf("panic event names job %q, want %s", ev.Job, second.ID)
		}
	}
	if !strings.Contains(dump.String(), "panic") {
		t.Fatalf("panic did not dump the flight recorder:\n%s", dump.String())
	}

	// Drain transitions are recorded too.
	drainServer(t, s)
	evs := s.Flight().Events()
	kinds = map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds["drain_begin"] == 0 || kinds["drain_end"] == 0 {
		t.Fatalf("drain not recorded: %v", kinds)
	}
}

// TestHTTPHealthzBody: the readiness body carries queue/in-flight and
// window detail while the 200/503 contract stays intact.
func TestHTTPHealthzBody(t *testing.T) {
	s, ts := newTestAPI(t, Options{Workers: 1, SLOTarget: time.Nanosecond})
	view := mustSubmit(t, s, graphJob(77))
	wait(t, s, view.ID)

	var h Health
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h.Status != "ok" || h.QueueDepth != 0 || h.Inflight != 0 {
		t.Fatalf("healthz body = %+v", h)
	}
	if h.WindowCount != 1 || h.WindowP99NS <= 0 || h.SLOViolations != 1 {
		t.Fatalf("healthz window detail = %+v, want 1 observation and 1 violation", h)
	}

	drainServer(t, s)
	var hd Health
	if code := getJSON(t, ts, "/healthz", &hd); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: HTTP %d, want 503", code)
	}
	if hd.Status != "draining" {
		t.Fatalf("healthz after drain = %+v", hd)
	}
}

// TestServerLifecycleLogs: with an injected clock the structured logs
// are assertable — lifecycle events carry job id, hash, and cause;
// access logs carry a request id that also reaches the client as
// X-Request-Id.
func TestServerLifecycleLogs(t *testing.T) {
	var buf bytes.Buffer
	clk := func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	s := newTestServer(t, Options{Workers: 1, Log: obs.NewLogger(&buf, clk)})

	view := mustSubmit(t, s, graphJob(8))
	done := wait(t, s, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job finished %s", done.Status)
	}

	type rec struct {
		Time, Msg, Job, Hash, Kind string
	}
	var events []rec
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r struct {
			Time string `json:"time"`
			Msg  string `json:"msg"`
			Job  string `json:"job"`
			Hash string `json:"hash"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		events = append(events, rec(r))
	}
	wantOrder := []string{"submitted", "started", "done"}
	if len(events) != len(wantOrder) {
		t.Fatalf("got %d log events, want %d:\n%s", len(events), len(wantOrder), buf.String())
	}
	for i, ev := range events {
		if ev.Msg != wantOrder[i] {
			t.Fatalf("event %d = %q, want %q", i, ev.Msg, wantOrder[i])
		}
		if ev.Job != view.ID || ev.Hash == "" {
			t.Fatalf("event %q missing job correlation: %+v", ev.Msg, ev)
		}
		if ev.Time != "2026-08-08T12:00:00Z" {
			t.Fatalf("injected clock not honored: %+v", ev)
		}
	}

	// Access log: synchronous through the handler, with the request id
	// mirrored in the response header.
	buf.Reset()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz via handler: %d", rr.Code)
	}
	rid := rr.Header().Get("X-Request-Id")
	if !strings.HasPrefix(rid, "req-") {
		t.Fatalf("X-Request-Id = %q", rid)
	}
	var access struct {
		Msg    string `json:"msg"`
		Req    string `json:"req"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(buf.Bytes(), &access); err != nil {
		t.Fatalf("access log not JSON: %v\n%s", err, buf.String())
	}
	if access.Msg != "http" || access.Req != rid || access.Path != "/healthz" || access.Status != 200 {
		t.Fatalf("access log = %+v (rid %s)", access, rid)
	}
}

// TestServerLogsShedDedupCacheHit covers the admission-path events.
func TestServerLogsShedDedupCacheHit(t *testing.T) {
	var buf bytes.Buffer
	plan := &fault.Plan{
		Seed:      1,
		StallRank: map[int]fault.Stall{0: {Phase: jobPhase, For: 250 * time.Millisecond}},
	}
	s := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1, Fault: plan,
		Log: obs.NewLogger(&buf, func() time.Time { return time.Unix(0, 0).UTC() }),
	})

	first := mustSubmit(t, s, graphJob(0))
	waitForStatus(t, s, first.ID, StatusRunning)
	second, err := s.Submit(graphJob(1), "key-a")
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if _, err := s.Submit(graphJob(2), ""); err != ErrQueueFull {
		t.Fatalf("shed submit: %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(graphJob(1), "key-a"); err != nil { // dedup
		t.Fatalf("dedup submit: %v", err)
	}
	wait(t, s, first.ID)
	if _, err := s.Submit(graphJob(0), ""); err != nil { // cache hit
		t.Fatalf("cached submit: %v", err)
	}
	// The worker logs job 1's events into buf; read it only once job 1
	// is finished, whose terminal line is written before Wait returns.
	wait(t, s, second.ID)

	logs := buf.String()
	for _, want := range []string{`"msg":"shed"`, `"msg":"deduped"`, `"msg":"cache_hit"`, `"key":"key-a"`} {
		if !strings.Contains(logs, want) {
			t.Errorf("logs missing %s:\n%s", want, logs)
		}
	}
}
