package server

// HTTP surface of the job engine. The API is deliberately small:
//
//	POST   /api/v1/jobs        submit (JSON JobSpec; Idempotency-Key
//	                           header dedups retries) -> 202 + job view
//	                           429 + Retry-After when the queue is full
//	                           503 when draining, 400 when invalid
//	GET    /api/v1/jobs        list jobs in submission order
//	GET    /api/v1/jobs/{id}   job status; ?wait=1 blocks until terminal
//	GET    /api/v1/jobs/{id}/result   result payload when done
//	GET    /api/v1/jobs/{id}/trace    retained Chrome trace-event JSON
//	DELETE /api/v1/jobs/{id}   cancel
//	GET    /api/v1/accounting  the job ledger
//	GET    /metrics            server observability report (JSON;
//	                           ?format=prom for Prometheus exposition)
//	GET    /debug/events       flight-recorder ring (JSON)
//	GET    /healthz            200 ok / 503 draining, JSON readiness body
//
// With Options.Log set, every request is access-logged with a
// server-assigned request id (also returned as X-Request-Id).
//
// NewHTTPServer wraps the mux in an http.Server with read-header,
// read, write, and idle timeouts, so slow-loris clients cannot pin
// connections open indefinitely.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes bounds a submit body (graphs travel inline as JSON).
const maxBodyBytes = 64 << 20

// Handler returns the API mux for the server, wrapped in access
// logging when Options.Log is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/accounting", s.handleAccounting)
	mux.Handle("GET /metrics", obs.MetricsHandler(s.metricsReport))
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.opt.Log == nil {
		return mux
	}
	return s.accessLog(mux)
}

// statusRecorder captures the response code/size for access logging.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// accessLog wraps h with per-request structured logging: one line per
// request with a server-assigned request id (also sent back as
// X-Request-Id so clients can quote it in bug reports).
func (s *Server) accessLog(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", rid)
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sr, r)
		s.opt.Log.Info("http", "req", rid, "method", r.Method,
			"path", r.URL.Path, "status", sr.code, "bytes", sr.bytes,
			"dur_ms", time.Since(t0).Milliseconds())
	})
}

// NewHTTPServer wraps the API in a hardened http.Server: header and
// body read timeouts (slowloris protection), a write timeout sized
// for large result payloads, and an idle keep-alive timeout. Callers
// stop it with Shutdown(ctx) after draining the job engine.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// httpError is the JSON error body.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// The connection is the only sink for an encode error; a client
	// that went away takes the response with it.
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, httpError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parse job spec: %w", err))
		return
	}
	view, err := s.Submit(spec, r.Header.Get("Idempotency-Key"))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter().Round(time.Second)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, view)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var view JobView
	var err error
	if r.URL.Query().Get("wait") != "" {
		view, err = s.Wait(r.Context(), id)
	} else {
		view, err = s.Job(id)
	}
	switch {
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	case err != nil:
		// Wait interrupted: the client went away or the server is
		// shutting the connection down.
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeJSON(w, http.StatusOK, view)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	view, err := s.Job(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	case view.Status != StatusDone:
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job %s is %s, result only exists when done", view.ID, view.Status))
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(view.Result) // connection errors have no other sink
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	if errors.Is(err, ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleAccounting(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Accounting())
}

// metricsReport is the obs report enriched with the rolling-window
// gauges and the SLO burn counters, re-sorted so both output formats
// stay deterministic.
func (s *Server) metricsReport() obs.Report {
	rep := s.opt.Obs.Report()
	ws := s.window.Snapshot()
	rep.Gauges = append(rep.Gauges,
		obs.CounterStat{Name: "serve_window_count", Value: ws.Count},
		obs.CounterStat{Name: "serve_window_p50_ns", Value: ws.P50},
		obs.CounterStat{Name: "serve_window_p90_ns", Value: ws.P90},
		obs.CounterStat{Name: "serve_window_p99_ns", Value: ws.P99},
		obs.CounterStat{Name: "serve_window_violations", Value: ws.WindowViolations},
		obs.CounterStat{Name: "serve_slo_objective_ns", Value: ws.ObjectiveNS},
	)
	rep.Counters = append(rep.Counters,
		obs.CounterStat{Name: "serve_slo_observed", Value: ws.Observed},
		obs.CounterStat{Name: "serve_slo_violations", Value: ws.Violations},
	)
	sort.Slice(rep.Gauges, func(i, j int) bool { return rep.Gauges[i].Name < rep.Gauges[j].Name })
	sort.Slice(rep.Counters, func(i, j int) bool { return rep.Counters[i].Name < rep.Counters[j].Name })
	return rep
}

// handleTrace streams a retained job trace as Chrome trace-event
// JSON. 404 when the job is unknown or its trace is gone (ring
// disabled or evicted), 409 while the job has not finished.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, err := s.Job(id)
	if errors.Is(err, ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !view.Status.terminal() {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; its trace is retained when it finishes", id, view.Status))
		return
	}
	tracer, ok := s.traces.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("no retained trace for job %s (trace ring disabled, or evicted)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = tracer.WriteTrace(w) // connection errors have no other sink
}

// handleEvents dumps the flight-recorder ring.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.flight.WriteJSON(w) // connection errors have no other sink
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
