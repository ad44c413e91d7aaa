package server

// HTTP surface tests: status-code mapping (202/400/404/409/429/503),
// Retry-After on shed, Idempotency-Key plumbing, the result and
// accounting endpoints, and health flipping to 503 under drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/fault"
)

// newTestAPI starts a drained-on-cleanup server and its httptest
// frontend.
func newTestAPI(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJob submits a spec over HTTP and returns the status code and
// decoded body.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec, idemKey string) (int, JobView, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var view JobView
	var apiErr httpError
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	} else if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	view.Error = view.Error + apiErr.Error
	return resp.StatusCode, view, resp.Header
}

// getJSON GETs a path and decodes the body into v, returning the
// status code.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPSubmitWaitResult(t *testing.T) {
	_, ts := newTestAPI(t, Options{Workers: 2})

	code, view, _ := postJob(t, ts, graphJob(11), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s), want 202", code, view.Error)
	}
	if view.ID == "" || view.Status != StatusQueued {
		t.Fatalf("submit view: %+v", view)
	}

	var done JobView
	if code := getJSON(t, ts, "/api/v1/jobs/"+view.ID+"?wait=1", &done); code != http.StatusOK {
		t.Fatalf("wait: HTTP %d", code)
	}
	if done.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}

	var res GraphResult
	if code := getJSON(t, ts, "/api/v1/jobs/"+view.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if len(res.Labels) != 24*24 {
		t.Fatalf("result carried %d labels", len(res.Labels))
	}

	var list []JobView
	if code := getJSON(t, ts, "/api/v1/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: HTTP %d with %d jobs", code, len(list))
	}
	var acct Accounting
	if code := getJSON(t, ts, "/api/v1/accounting", &acct); code != http.StatusOK {
		t.Fatalf("accounting: HTTP %d", code)
	}
	if acct.Completed != 1 {
		t.Fatalf("accounting over HTTP: %+v", acct)
	}
	if code := getJSON(t, ts, "/metrics", nil); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
}

// TestHTTPSubmitAdaptiveNeedsWarmstart: an adaptive sweep is refused
// at submit (400) unless its backend can warm-start, instead of being
// queued and failing after the scene and snapshot 0 were computed.
func TestHTTPSubmitAdaptiveNeedsWarmstart(t *testing.T) {
	_, ts := newTestAPI(t, Options{Workers: 1})
	for _, tc := range []struct {
		backend string
		want    int
	}{
		{"sfc", http.StatusBadRequest},
		{"bkmeans", http.StatusBadRequest},
		{"rcb", http.StatusBadRequest},
		{"multilevel", http.StatusAccepted},
	} {
		spec := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{
			Snapshots: 1, Ks: []int{2}, Seed: 9, Backend: tc.backend, Adaptive: true,
		}}
		if code, view, _ := postJob(t, ts, spec, ""); code != tc.want {
			t.Errorf("adaptive sweep on %s: HTTP %d (%s), want %d", tc.backend, code, view.Error, tc.want)
		}
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	plan := &fault.Plan{StallRank: map[int]fault.Stall{0: {Phase: jobPhase, For: time.Minute}}}
	s, ts := newTestAPI(t, Options{Workers: 1, QueueDepth: 1, Fault: plan, RetryAfter: 2 * time.Second})

	// 400: malformed JSON and invalid spec.
	resp, err := ts.Client().Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatalf("post garbage: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: HTTP %d, want 400", resp.StatusCode)
	}
	if code, _, _ := postJob(t, ts, JobSpec{Kind: "nope"}, ""); code != http.StatusBadRequest {
		t.Fatalf("invalid spec: HTTP %d, want 400", code)
	}
	// A graph job's k is capped like a sweep's: KWay's cost grows with
	// k even on a tiny graph, so a huge k would hold a worker.
	hugeK := JobSpec{Kind: KindGraph, Graph: gridSpec(4, 4), K: 1 << 30}
	if code, view, _ := postJob(t, ts, hugeK, ""); code != http.StatusBadRequest {
		t.Fatalf("graph job with k=%d: HTTP %d (%s), want 400", hugeK.K, code, view.Error)
	}
	// The geometric backends need 2-D or 3-D coordinates; a 1-D graph
	// is refused at submit rather than failing in the worker.
	oneDim := JobSpec{Kind: KindGraph, Graph: lineSpec1D(), K: 2, Backend: "sfc"}
	if code, view, _ := postJob(t, ts, oneDim, ""); code != http.StatusBadRequest {
		t.Fatalf("sfc job with dim 1: HTTP %d (%s), want 400", code, view.Error)
	}
	// A sweep's step count is bounded too: sim.Run takes no context.
	manySteps := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1, Steps: maxSteps + 1, Ks: []int{2}}}
	if code, view, _ := postJob(t, ts, manySteps, ""); code != http.StatusBadRequest {
		t.Fatalf("sweep with %d steps: HTTP %d (%s), want 400", manySteps.Sweep.Steps, code, view.Error)
	}

	// 404: unknown job, every verb.
	if code := getJSON(t, ts, "/api/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Fatalf("get unknown: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts, "/api/v1/jobs/job-999999/result", nil); code != http.StatusNotFound {
		t.Fatalf("result unknown: HTTP %d, want 404", code)
	}

	// Fill the server: one stalled running job, one queued.
	code, stalled, _ := postJob(t, ts, graphJob(1), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit stalled: HTTP %d", code)
	}
	waitForStatus(t, s, stalled.ID, StatusRunning)
	if code, _, _ = postJob(t, ts, graphJob(2), ""); code != http.StatusAccepted {
		t.Fatalf("submit queued: HTTP %d", code)
	}

	// 409: result of a job that is not done.
	if code := getJSON(t, ts, "/api/v1/jobs/"+stalled.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of running job: HTTP %d, want 409", code)
	}

	// 429 + Retry-After: queue full.
	code, _, hdr := postJob(t, ts, graphJob(3), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed submit: HTTP %d, want 429", code)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra != 2 {
		t.Fatalf("Retry-After = %q, want 2", hdr.Get("Retry-After"))
	}

	// Idempotent retry of the queued spec dedups even while full.
	code, first, _ := postJob(t, ts, graphJob(4), "key-1")
	if code != http.StatusTooManyRequests {
		t.Fatalf("keyed submit while full: HTTP %d, want 429", code)
	}
	_ = first

	// DELETE the stalled job; it unblocks and the queue drains.
	req, err := http.NewRequest("DELETE", ts.URL+"/api/v1/jobs/"+stalled.ID, nil)
	if err != nil {
		t.Fatalf("build delete: %v", err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, stalled.ID); err != nil {
		t.Fatalf("wait cancelled: %v", err)
	}
}

func TestHTTPIdempotencyKeyDedups(t *testing.T) {
	_, ts := newTestAPI(t, Options{Workers: 1})
	code, first, _ := postJob(t, ts, graphJob(5), "retry-key")
	if code != http.StatusAccepted {
		t.Fatalf("first keyed submit: HTTP %d", code)
	}
	code, second, _ := postJob(t, ts, graphJob(5), "retry-key")
	if code != http.StatusAccepted {
		t.Fatalf("retry keyed submit: HTTP %d", code)
	}
	if second.ID != first.ID {
		t.Fatalf("keyed retry over HTTP created %s, first was %s", second.ID, first.ID)
	}
}

func TestHTTPHealthzFlipsOnDrain(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz idle: HTTP %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz draining: HTTP %d, want 503", code)
	}
	// Submitting over HTTP now maps ErrDraining to 503.
	if code, _, _ := postJob(t, ts, graphJob(1), ""); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}
}

// TestHTTPServerHardened pins the anti-slowloris settings of the
// wrapped http.Server.
func TestHTTPServerHardened(t *testing.T) {
	srv := NewHTTPServer(":0", http.NewServeMux())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s unset: a stalled client could pin its connection forever", name)
		}
	}
}

// TestHTTPResultRoundTrip proves the submitted CSR survives the wire
// format: submit over HTTP, fetch the result, and check the labels
// against a direct engine run of the same spec.
func TestHTTPResultRoundTrip(t *testing.T) {
	s, ts := newTestAPI(t, Options{Workers: 1})
	spec := graphJob(21)

	code, view, _ := postJob(t, ts, spec, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	var httpRes GraphResult
	if c := getJSON(t, ts, "/api/v1/jobs/"+view.ID+"?wait=1", new(JobView)); c != http.StatusOK {
		t.Fatalf("wait: HTTP %d", c)
	}
	if c := getJSON(t, ts, "/api/v1/jobs/"+view.ID+"/result", &httpRes); c != http.StatusOK {
		t.Fatalf("result: HTTP %d", c)
	}

	direct := wait(t, s, mustSubmit(t, s, spec).ID) // cache hit: same bytes
	var directRes GraphResult
	mustUnmarshal(t, direct.Result, &directRes)
	if fmt.Sprint(httpRes.Labels) != fmt.Sprint(directRes.Labels) {
		t.Fatalf("labels over HTTP differ from the engine's")
	}
}

func mustSubmit(t *testing.T, s *Server, spec JobSpec) JobView {
	t.Helper()
	view, err := s.Submit(spec, "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return view
}
