// Package server is the partitioning-as-a-service core: a long-lived
// job engine that accepts partition-a-graph and run-a-sweep jobs,
// executes them on a bounded worker pool behind a bounded queue, and
// survives the failure modes a daemon meets in production —
//
//   - backpressure: a full queue sheds load with ErrQueueFull (HTTP
//     429 + Retry-After) instead of buffering without bound;
//   - deadlines: every job runs under a context deadline that
//     actually stops the multilevel recursion (partition.KWay) and
//     the sweep loop, not just abandons the goroutine;
//   - panic isolation: a panicking job becomes that job's failure,
//     never the daemon's;
//   - idempotency: submissions carrying an idempotency key are
//     deduplicated to the first job, so client retries are safe;
//   - result caching: results are cached by spec hash in a bounded
//     LRU, so repeat queries are O(1) and skip the queue entirely;
//   - graceful drain: Drain stops intake, rejects the still-queued
//     jobs, and cancels in-flight sweeps at a snapshot boundary with
//     their progress durable in the checkpoint spool — a restarted
//     server resumes a resubmitted sweep to byte-identical results.
//
// The HTTP surface lives in http.go; cmd/partsrv is the daemon.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Sentinel errors of the submit path; the HTTP layer maps them to
// status codes (429, 503, 404, 409). Validation failures are returned
// as plain errors and map to 400.
var (
	// ErrQueueFull: the bounded job queue is at capacity; retry after
	// the server's advertised backoff.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining: the server is shutting down and accepts no new work.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrNotFound: no job with that id.
	ErrNotFound = errors.New("server: no such job")
)

// Options configures a Server. The zero value gets sensible defaults
// from withDefaults.
type Options struct {
	// Workers is the number of concurrent job executors.
	Workers int
	// JobWorkers bounds the worker pool inside one job (the multilevel
	// recursion's pool and the sweep's experiment pool). Labels and
	// results never depend on it.
	JobWorkers int
	// QueueDepth bounds the job queue; submissions past it shed with
	// ErrQueueFull.
	QueueDepth int
	// DefaultTimeout/MaxTimeout bound per-job wall clock: jobs that
	// specify no timeout get the default, and no job may exceed the
	// maximum.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheEntries bounds the result LRU (0 = default; negative
	// disables caching).
	CacheEntries int
	// SpoolDir, when non-empty, enables sweep checkpointing: each sweep
	// job checkpoints to <SpoolDir>/<spec hash>.ckpt after every
	// measured snapshot, and a resubmitted sweep resumes from it.
	SpoolDir string
	// RetryAfter is the backoff the HTTP layer advertises on 429.
	RetryAfter time.Duration
	// MaxGraphVertices caps submitted graph sizes (memory protection).
	MaxGraphVertices int
	// Obs, when non-nil, receives server-level phases ("serve_job_wall"
	// per finished job, with p50/p99 via its histogram), counters, and
	// every finished job's merged per-job report.
	Obs *obs.Collector
	// Fault, when non-nil, injects deterministic chaos into job
	// execution: a job's sequence number is its rank, so
	// Fault.PanicRank / StallRank schedule panics and stalls inside
	// specific jobs (the chaos tests' lever). Nil-safe.
	Fault *fault.Plan
	// Log, when non-nil, receives structured lifecycle events
	// (submitted/dedup/cache-hit/shed/started/done/...) and per-request
	// access logs, each carrying job id, spec hash, and cause. Build
	// one with obs.NewLogger; nil disables logging entirely.
	Log *slog.Logger
	// FlightEvents sizes the flight recorder, the bounded ring of
	// admission/lifecycle events behind GET /debug/events (0 = 256).
	FlightEvents int
	// FlightDump, when non-nil, receives a flight-recorder text dump
	// whenever a job panics (cmd/partsrv passes stderr, so post-mortem
	// context survives even if nobody scrapes /debug/events).
	FlightDump io.Writer
	// TraceRing, when positive, runs every job under its own
	// obs.Tracer and retains the last TraceRing completed jobs'
	// traces for GET /api/v1/jobs/{id}/trace. 0 disables job tracing.
	TraceRing int
	// WindowSlot/WindowSlots configure the rolling latency window over
	// serve_job_wall: WindowSlots sub-histograms of WindowSlot each
	// (defaults 6 x 10s). The window feeds /metrics (both formats) and
	// the /healthz readiness body.
	WindowSlot  time.Duration
	WindowSlots int
	// SLOTarget is the latency objective for completed jobs; done jobs
	// slower than it count against the error budget
	// (serve_slo_violations_total). 0 disables violation tracking.
	SLOTarget time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.JobWorkers == 0 {
		o.JobWorkers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxGraphVertices <= 0 {
		o.MaxGraphVertices = 2_000_000
	}
	if o.FlightEvents <= 0 {
		o.FlightEvents = 256
	}
	if o.WindowSlot <= 0 {
		o.WindowSlot = 10 * time.Second
	}
	if o.WindowSlots <= 0 {
		o.WindowSlots = 6
	}
	return o
}

// Accounting is the server's job ledger. At quiescence it balances:
//
//	Submitted = Accepted + RejectedFull + RejectedDraining
//	          + RejectedInvalid + Deduped
//	Accepted  = Completed + Failed + Canceled + Drained + DrainedQueued
//	          + (jobs still queued or running)
//
// The chaos tests assert both identities after drain, when nothing is
// queued or running.
type Accounting struct {
	Submitted        int64 `json:"submitted"`
	Accepted         int64 `json:"accepted"`
	RejectedFull     int64 `json:"rejected_full"`
	RejectedDraining int64 `json:"rejected_draining"`
	RejectedInvalid  int64 `json:"rejected_invalid"`
	Deduped          int64 `json:"deduped"`
	CacheHits        int64 `json:"cache_hits"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Canceled         int64 `json:"canceled"`
	Drained          int64 `json:"drained"`
	DrainedQueued    int64 `json:"drained_queued"`
}

// Server is the job engine. Create with New, stop with Drain.
type Server struct {
	opt    Options
	cache  *resultCache
	window *obs.WindowedHist
	flight *obs.FlightRecorder
	traces *traceRing
	reqSeq atomic.Int64 // access-log request ids

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextSeq  int64
	inflight int // jobs in StatusRunning
	jobs     map[string]*Job
	order    []string          // job ids in submission order
	byKey    map[string]string // idempotency key -> job id
	acct     Accounting

	// The most recent sweep scene and its sceneKey. One is kept: a
	// scene holds every snapshot's mesh, and keeping each distinct
	// one would grow the daemon for its whole lifetime.
	sceneMu    sync.Mutex
	sceneKey   string
	sceneSnaps []sim.Snapshot
}

// New starts a server: opt.Workers executor goroutines behind a
// QueueDepth-bounded queue. The caller must Drain it to stop.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:   opt,
		queue: make(chan *Job, opt.QueueDepth),
		jobs:  make(map[string]*Job),
		byKey: make(map[string]string),
	}
	if opt.CacheEntries > 0 {
		s.cache = newResultCache(opt.CacheEntries)
	}
	s.window = obs.NewWindowedHist(opt.WindowSlot, opt.WindowSlots, int64(opt.SLOTarget), nil)
	s.flight = obs.NewFlightRecorder(opt.FlightEvents, nil)
	if opt.TraceRing > 0 {
		s.traces = newTraceRing(opt.TraceRing)
	}
	//lint:ignore ctxflow the daemon's base context is a true lifecycle root; Drain cancels it
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job, returning its view (status
// "queued", or "done" immediately on a cache hit or an idempotent
// duplicate of a finished job). idemKey, when non-empty, deduplicates
// retries: a second submission with the same key returns the first
// job instead of creating a new one. Errors: ErrDraining, ErrQueueFull
// (retryable), or a validation error (not retryable).
func (s *Server) Submit(spec JobSpec, idemKey string) (JobView, error) {
	// Lifecycle logging happens after the mutex is released: the log
	// defer is registered before the lock defer, so the LIFO unwind
	// runs Unlock first. A slog write under the admission mutex would
	// stall every submitter and every health probe behind one slow
	// stderr pipe (the lockheld contract).
	// A queued job's logged channel closes only after "submitted" is
	// written, and the worker waits on it before logging "started", so
	// the two events keep their order without a log under the mutex.
	var logEv string
	var logArgs []any
	var queued *Job
	defer func() {
		if logEv != "" {
			s.logEvent(logEv, logArgs...)
		}
		if queued != nil {
			close(queued.logged)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acct.Submitted++
	if s.draining {
		s.acct.RejectedDraining++
		s.flight.Record("reject_draining", "", string(spec.Kind))
		logEv, logArgs = "rejected_draining", []any{"kind", string(spec.Kind)}
		return JobView{}, ErrDraining
	}
	if idemKey != "" {
		if id, ok := s.byKey[idemKey]; ok {
			s.acct.Deduped++
			logEv, logArgs = "deduped", []any{"job", id, "key", idemKey}
			return s.jobs[id].view(), nil
		}
	}
	if err := spec.validate(s.opt.MaxGraphVertices); err != nil {
		s.acct.RejectedInvalid++
		logEv, logArgs = "rejected_invalid", []any{"kind", string(spec.Kind), "cause", err.Error()}
		return JobView{}, fmt.Errorf("invalid job: %w", err)
	}

	job := &Job{
		seq:       s.nextSeq,
		key:       idemKey,
		hash:      spec.hash(),
		spec:      spec,
		status:    StatusQueued,
		done:      make(chan struct{}),
		logged:    make(chan struct{}),
		submitted: time.Now(),
	}
	job.id = fmt.Sprintf("job-%06d", job.seq)

	// Result cache: an already-answered spec completes instantly and
	// never occupies a queue slot.
	if result, ok := s.cache.get(job.hash); ok {
		job.status = StatusDone
		job.result = result
		job.cached = true
		close(job.done)
		s.acct.Accepted++
		s.acct.CacheHits++
		s.acct.Completed++
		s.registerLocked(job)
		logEv, logArgs = "cache_hit", []any{"job", job.id, "hash", job.hash}
		return job.view(), nil
	}

	// Bounded queue: shed rather than buffer. The send happens under
	// s.mu, which Drain also holds when it closes the queue, so a send
	// on a closed channel cannot happen.
	select {
	case s.queue <- job:
	default:
		s.acct.RejectedFull++
		s.flight.Record("shed", "", fmt.Sprintf("queue full (kind=%s hash=%s)", spec.Kind, job.hash))
		logEv, logArgs = "shed", []any{"kind", string(spec.Kind), "hash", job.hash}
		return JobView{}, ErrQueueFull
	}
	s.acct.Accepted++
	s.registerLocked(job)
	logEv, logArgs = "submitted", []any{"job", job.id, "kind", string(spec.Kind), "hash", job.hash}
	queued = job
	return job.view(), nil
}

// logEvent emits one structured lifecycle event; a nil logger makes
// it free.
func (s *Server) logEvent(event string, args ...any) {
	if s.opt.Log == nil {
		return
	}
	s.opt.Log.Info(event, args...)
}

// registerLocked records an accepted job; only accepted jobs consume
// a sequence number. Caller holds s.mu.
func (s *Server) registerLocked(job *Job) {
	s.nextSeq++
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	if job.key != "" {
		s.byKey[job.key] = job.id
	}
}

// Job returns a job's current view.
func (s *Server) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return job.view(), nil
}

// Jobs lists all jobs in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Cancel requests cancellation of a job. A queued job is cancelled on
// the spot; a running one has its context cancelled and transitions
// when the payload unwinds (its Done channel closes then). Cancelling
// a terminal job is a no-op returning its final view.
func (s *Server) Cancel(id string) (JobView, error) {
	announce := func() {}
	defer func() { announce() }() // after the Unlock below: defers unwind LIFO
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	if job.status.terminal() {
		return job.view(), nil
	}
	job.clientStop = true
	switch job.status {
	case StatusQueued:
		// The worker that eventually pops it sees the terminal status
		// and skips it.
		announce = s.finishLocked(job, StatusCanceled, "canceled before start", nil, nil)
	case StatusRunning:
		job.cancel()
	}
	return job.view(), nil
}

// Wait blocks until the job reaches a terminal status (or ctx ends)
// and returns its final view.
func (s *Server) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, ErrNotFound
	}
	select {
	case <-job.done:
		return s.Job(id)
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// Accounting returns a snapshot of the job ledger.
func (s *Server) Accounting() Accounting {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acct
}

// RetryAfter is the backoff the HTTP layer advertises with 429.
func (s *Server) RetryAfter() time.Duration { return s.opt.RetryAfter }

// Flight returns the server's flight recorder (never nil), so the
// daemon can dump it on SIGQUIT.
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Health is the /healthz readiness body. Status and the HTTP code are
// redundant on purpose: probes branch on the code, dashboards read
// the body.
type Health struct {
	Status     string `json:"status"` // "ok" or "draining"
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	// Rolling-window latency detail (serve_job_wall over the window).
	WindowCount     int64 `json:"window_count"`
	WindowP99NS     int64 `json:"window_p99_ns"`
	SLOObjectiveNS  int64 `json:"slo_objective_ns,omitempty"`
	SLOViolations   int64 `json:"slo_violations_total"`
	WindowViolation int64 `json:"window_violations"`
}

// Health returns the readiness snapshot behind /healthz.
func (s *Server) Health() Health {
	ws := s.window.Snapshot()
	s.mu.Lock()
	h := Health{
		Status:          "ok",
		QueueDepth:      len(s.queue),
		Inflight:        s.inflight,
		WindowCount:     ws.Count,
		WindowP99NS:     ws.P99,
		SLOObjectiveNS:  ws.ObjectiveNS,
		SLOViolations:   ws.Violations,
		WindowViolation: ws.WindowViolations,
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	return h
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: new submissions are rejected
// with ErrDraining, jobs still queued are marked drained_queued
// without running, and in-flight jobs have their contexts cancelled —
// a running sweep stops at the next snapshot boundary with progress
// durable in the checkpoint spool. Drain returns when every worker
// has exited, or ctx's error if they don't make it in time (leaving
// the workers to finish unwinding in the background). Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	// Capture the drain snapshot under the lock, log after releasing
	// it: the structured-log write must not extend the critical
	// section (lockheld).
	s.mu.Lock()
	began := false
	var inflight, queued int
	if !s.draining {
		s.draining = true
		close(s.queue)
		began, inflight, queued = true, s.inflight, len(s.queue)
		s.flight.Record("drain_begin", "", fmt.Sprintf("inflight=%d queued=%d", inflight, queued))
	}
	s.mu.Unlock()
	if began {
		s.logEvent("drain_begin", "inflight", inflight, "queued", queued)
	}
	s.baseCancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.flight.Record("drain_end", "", "all workers exited")
		s.logEvent("drain_end")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain grace expired: %w", ctx.Err())
	}
}

// worker executes jobs until the queue is closed and empty. Jobs
// popped after drain began never start: they are marked
// drained_queued for the client to resubmit elsewhere.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		<-job.logged // Submit has logged "submitted"
		s.mu.Lock()
		switch {
		case job.status.terminal():
			// Cancelled while queued; nothing to do.
			s.mu.Unlock()
			continue
		case s.draining:
			announce := s.finishLocked(job, StatusDrainedQueued, "server drained before the job started", nil, nil)
			s.mu.Unlock()
			announce()
			continue
		}
		ctx, cancel := context.WithTimeout(s.baseCtx, job.spec.timeout(s.opt.DefaultTimeout, s.opt.MaxTimeout))
		job.status = StatusRunning
		job.cancel = cancel
		s.inflight++
		s.mu.Unlock()
		s.logEvent("started", "job", job.id, "kind", string(job.spec.Kind), "hash", job.hash)

		s.runJob(ctx, job)
		cancel()
	}
}

// jobPhase is the fault-plan phase under which job-level chaos
// (PanicRank/StallRank keyed by job sequence number) is injected.
const jobPhase = 0

// runJob executes one job inside the panic/deadline envelope and
// records the outcome. The recover means a panicking payload — or an
// injected fault.InjectedPanic — fails the job, never the daemon.
func (s *Server) runJob(ctx context.Context, job *Job) {
	col := obs.New()
	// With a trace ring, the job runs under its own tracer so its
	// spans are retrievable per job id after it finishes; otherwise
	// tracing is off (a nil tracer).
	var tracer *obs.Tracer
	if s.traces != nil {
		tracer = obs.NewTracer()
	}
	span := tracer.Root("job", obs.Str("id", job.id), obs.Str("kind", string(job.spec.Kind)))

	var result []byte
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
				col.Add("job_panics", 1)
				s.flight.Record("panic", job.id, fmt.Sprint(r))
				if s.opt.FlightDump != nil {
					s.flight.WriteText(s.opt.FlightDump)
				}
			}
		}()
		s.opt.Fault.MaybePanic(int(job.seq), jobPhase)
		s.opt.Fault.MaybeStall(ctx, int(job.seq), jobPhase)
		switch job.spec.Kind {
		case KindGraph:
			result, err = s.runGraphJob(ctx, job, col, span)
		case KindSweep:
			result, err = s.runSweepJob(ctx, job, col, span)
		default:
			err = fmt.Errorf("unknown job kind %q", job.spec.Kind)
		}
	}()
	span.End()
	if tracer != nil {
		// Retain before the terminal transition: once a waiter sees the
		// job finished, its trace must already be retrievable.
		s.traces.put(job.id, tracer)
	}

	// Attribute a failure: client cancel beats drain beats deadline.
	s.mu.Lock()
	var announce func()
	switch {
	case err == nil:
		s.cache.put(job.hash, result)
		announce = s.finishLocked(job, StatusDone, "", result, col)
	case job.clientStop && errors.Is(err, context.Canceled):
		announce = s.finishLocked(job, StatusCanceled, "canceled by client", nil, col)
	case s.draining && errors.Is(err, context.Canceled):
		s.flight.Record("drained", job.id, "interrupted in flight")
		announce = s.finishLocked(job, StatusDrained, "interrupted by server drain; progress checkpointed", nil, col)
	case errors.Is(err, context.DeadlineExceeded):
		s.flight.Record("deadline", job.id, "deadline exceeded")
		announce = s.finishLocked(job, StatusFailed, "deadline exceeded", nil, col)
	default:
		announce = s.finishLocked(job, StatusFailed, err.Error(), nil, col)
	}
	s.mu.Unlock()
	announce()
}

// finishLocked moves a job to a terminal status, stamps its wall
// clock and observability report, and bumps the ledger. Caller holds
// s.mu and must call the returned announce once it has released it:
// announce writes the terminal log line, which must not happen under
// the mutex (the lockheld contract), and only then wakes waiters, so
// a waiter never sees a finished job whose line is not yet written.
func (s *Server) finishLocked(job *Job, status Status, errMsg string, result []byte, col *obs.Collector) (announce func()) {
	if job.status == StatusRunning {
		s.inflight--
	}
	job.status = status
	job.err = errMsg
	job.result = result
	job.wallNS = int64(time.Since(job.submitted))
	if col != nil {
		rep := col.Report()
		job.obsReport = &rep
		if err := s.opt.Obs.Merge(rep); err != nil {
			s.opt.Obs.Add("obs_merge_errors", 1)
		}
	}
	if status == StatusDone {
		// Only completed jobs feed the latency histogram (cumulative
		// and rolling-window); cancelled or drained jobs would skew
		// p50/p99 with wall clock they never spent computing.
		s.opt.Obs.Observe("serve_job_wall", time.Duration(job.wallNS))
		s.window.Observe(job.wallNS)
	}
	switch status {
	case StatusDone:
		s.acct.Completed++
	case StatusFailed:
		s.acct.Failed++
	case StatusCanceled:
		s.acct.Canceled++
	case StatusDrained:
		s.acct.Drained++
	case StatusDrainedQueued:
		s.acct.DrainedQueued++
		s.flight.Record("drained_queued", job.id, "drained before start")
	}
	wallMS := job.wallNS / int64(time.Millisecond)
	return func() {
		s.logEvent(string(status), "job", job.id, "hash", job.hash, "cause", errMsg, "wall_ms", wallMS)
		close(job.done)
	}
}

// runGraphJob partitions the submitted graph with the requested
// backend and reports labels, cut, and per-constraint imbalance.
func (s *Server) runGraphJob(ctx context.Context, job *Job, col *obs.Collector, span *obs.Span) ([]byte, error) {
	spec := job.spec
	g, coords, err := spec.Graph.Build()
	if err != nil {
		return nil, err
	}
	be, err := backend.Lookup(spec.Backend)
	if err != nil {
		return nil, err
	}
	labels, err := be.Partition(backend.Input{Graph: g, Coords: coords, Dim: spec.Graph.Dim}, backend.Options{
		K: spec.K, Seed: spec.Seed, Imbalance: spec.Imbalance,
		Workers: s.opt.JobWorkers, Obs: col, Span: span, Ctx: ctx,
	})
	if err != nil {
		return nil, err
	}
	res := GraphResult{
		Labels:     labels,
		Cut:        partition.EdgeCut(g, labels),
		Imbalances: metrics.LoadImbalance(g, labels, spec.K),
	}
	return json.Marshal(res)
}

// runSweepJob runs the evaluation harness over the (cached) synthetic
// scene. With a spool directory configured the sweep checkpoints
// after every measured snapshot; a resubmission after a drain resumes
// from the checkpoint and returns bytes identical to an uninterrupted
// run. The checkpoint is deleted on success and kept on any
// interruption.
func (s *Server) runSweepJob(ctx context.Context, job *Job, col *obs.Collector, span *obs.Span) ([]byte, error) {
	spec := job.spec.Sweep.withDefaults()
	snaps, err := s.scene(spec)
	if err != nil {
		return nil, err
	}
	cfgs := spec.harnessConfigs(col)

	var ck *harness.Checkpointer
	var ckPath string
	if s.opt.SpoolDir != "" {
		ckPath = filepath.Join(s.opt.SpoolDir, job.hash+".ckpt")
		switch loaded, lerr := harness.LoadCheckpoint(ckPath, snaps, cfgs); {
		case lerr == nil:
			ck = loaded
			s.mu.Lock()
			job.resumed = true
			s.mu.Unlock()
			col.Add("sweep_resumes", 1)
			if rep := ck.SavedObs(); rep != nil {
				if merr := col.Merge(*rep); merr != nil {
					col.Add("obs_merge_errors", 1)
				}
			}
		case errors.Is(lerr, os.ErrNotExist):
			ck = harness.NewCheckpointer(ckPath, snaps, cfgs)
		case errors.Is(lerr, harness.ErrCheckpointMismatch):
			// Stale spool entry from an older schema; start fresh. A
			// hash collision between different workloads cannot get
			// here (the spec hash covers every config field), so this
			// is only ever a format-version bump.
			col.Add("checkpoint_mismatches", 1)
			ck = harness.NewCheckpointer(ckPath, snaps, cfgs)
		default:
			return nil, lerr
		}
		ck.Obs = col
	}

	results, err := harness.RunSweep(obs.ContextWithSpan(ctx, span), snaps, cfgs, harness.SweepOptions{
		Workers: s.opt.JobWorkers, Checkpoint: ck,
	})
	if err != nil {
		return nil, err
	}
	if ckPath != "" {
		// Completed: the result is cached, the checkpoint is spent. A
		// failed remove only costs spool space, not correctness.
		if rerr := os.Remove(ckPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			col.Add("spool_remove_errors", 1)
		}
	}
	return json.Marshal(SweepResult{Results: results})
}

// scene returns the snapshot sequence for a sweep's scene parameters,
// generating it unless it is the most recent scene. Scenes are
// deterministic in their parameters, so sharing or regenerating them
// changes nothing but wall clock.
func (s *Server) scene(spec SweepSpec) ([]sim.Snapshot, error) {
	key := spec.sceneKey()
	s.sceneMu.Lock()
	defer s.sceneMu.Unlock()
	if s.sceneSnaps != nil && s.sceneKey == key {
		return s.sceneSnaps, nil
	}
	s.sceneSnaps = nil // not held through the next scene's generation
	snaps, err := sim.Run(spec.simConfig())
	if err != nil {
		return nil, err
	}
	s.sceneKey, s.sceneSnaps = key, snaps
	return snaps, nil
}
