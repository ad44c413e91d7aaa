// Command partsrv is the partitioning-as-a-service daemon: it serves
// the internal/server job API over HTTP and stays up until told to
// stop.
//
//	partsrv -addr :8080 -workers 4 -queue 64 -spool /var/spool/partsrv
//
// Operational contract:
//
//   - backpressure: the job queue is bounded; past capacity, submits
//     get 429 + Retry-After instead of unbounded buffering;
//   - deadlines: every job runs under a wall-clock budget
//     (-timeout default, -max-timeout ceiling) whose expiry actually
//     stops the partitioning recursion;
//   - isolation: a panicking job fails that job, not the daemon;
//   - drain: SIGTERM/SIGINT stops intake, marks still-queued jobs
//     drained_queued, checkpoints in-flight sweeps to the spool at a
//     snapshot boundary, then shuts the HTTP listener down
//     gracefully. A restarted daemon resumes a resubmitted sweep from
//     the spool to byte-identical results;
//   - observability: structured JSON logs on stderr (one line per
//     request and per job lifecycle event), GET /metrics?format=prom
//     for Prometheus scrapes, per-job traces on
//     GET /api/v1/jobs/{id}/trace (ring sized by -trace-ring), a
//     flight recorder on GET /debug/events, and rolling-window
//     latency/SLO accounting (-slo, -slo-window) surfaced in /metrics
//     and /healthz. SIGQUIT dumps the flight recorder to stderr and
//     keeps serving.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		workers    = flag.Int("workers", 2, "concurrent job executors")
		jobWorkers = flag.Int("job-workers", 0, "worker pool inside one job (0 = 1; results never depend on it)")
		queue      = flag.Int("queue", 16, "job queue depth; submits past it get 429")
		timeout    = flag.Duration("timeout", time.Minute, "default per-job wall-clock budget")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "ceiling on client-requested job timeouts")
		cache      = flag.Int("cache", 64, "result cache entries (LRU by spec hash)")
		spool      = flag.String("spool", "", "sweep checkpoint directory (empty = no checkpointing)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight jobs to checkpoint and stop")
		traceRing  = flag.Int("trace-ring", 64, "completed-job traces retained for GET /api/v1/jobs/{id}/trace (0 = off)")
		events     = flag.Int("events", 256, "flight-recorder ring capacity (GET /debug/events)")
		slo        = flag.Duration("slo", 0, "per-job wall-clock latency objective; 0 disables SLO violation accounting")
		sloWindow  = flag.Duration("slo-window", time.Minute, "rolling window for the p50/p99 and violation figures in /metrics and /healthz")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, nil)
	if *spool != "" {
		if err := os.MkdirAll(*spool, 0o755); err != nil {
			logger.Error("spool setup failed", "err", err)
			return 1
		}
	}
	col := obs.New()
	opt := server.Options{
		Workers:        *workers,
		JobWorkers:     *jobWorkers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		CacheEntries:   *cache,
		SpoolDir:       *spool,
		Obs:            col,
		Log:            logger,
		TraceRing:      *traceRing,
		FlightEvents:   *events,
		FlightDump:     os.Stderr,
		WindowSlots:    6,
		WindowSlot:     *sloWindow / 6,
		SLOTarget:      *slo,
	}

	srv := server.New(opt)
	httpSrv := server.NewHTTPServer(*addr, srv.Handler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	fmt.Printf("partsrv serving on http://%s (workers=%d queue=%d spool=%q)\n",
		ln.Addr(), *workers, *queue, *spool)
	logger.Info("serving", "addr", ln.Addr().String(), "workers", *workers,
		"queue", *queue, "spool", *spool, "trace_ring", *traceRing,
		"slo", slo.String(), "slo_window", sloWindow.String())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGQUIT)
	var cause os.Signal
signals:
	for {
		select {
		case got := <-sig:
			if got == syscall.SIGQUIT {
				// The operator's "what just happened": dump the flight
				// recorder to stderr and keep serving.
				srv.Flight().WriteText(os.Stderr)
				continue
			}
			cause = got
			break signals
		case err := <-serveErr:
			logger.Error("listener failed", "err", err)
			return 1
		}
	}
	fmt.Printf("partsrv: %s: draining (grace %s)\n", cause, *drainGrace)
	logger.Info("draining", "signal", cause.String(), "grace", drainGrace.String())

	// Drain order matters: stop the job engine first so in-flight
	// sweeps checkpoint and queued jobs get their terminal status,
	// then close the HTTP side so clients can read those statuses
	// until the end of the grace period.
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	code := 0
	if err := srv.Drain(ctx); err != nil {
		logger.Error("drain failed", "err", err)
		code = 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown failed", "err", err)
		_ = httpSrv.Close() // grace expired; refuse to hang exit
		code = 1
	}
	a := srv.Accounting()
	fmt.Printf("partsrv: drained. accepted=%d completed=%d failed=%d canceled=%d drained=%d drained_queued=%d rejected_full=%d\n",
		a.Accepted, a.Completed, a.Failed, a.Canceled, a.Drained, a.DrainedQueued, a.RejectedFull)
	return code
}
