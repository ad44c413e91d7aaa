package main

// The live observability endpoint (-http): while a sweep runs, a
// background HTTP server exposes
//
//	/metrics          the obs report (phases, counters, gauges,
//	                  histograms) as JSON; ?format=prom switches to
//	                  Prometheus text exposition, with runtime/metrics
//	                  samples (heap, GC, goroutines) as go_* series
//	/progress         the sweep cursor: per experiment, snapshot i of N
//	/debug/pprof/*    the standard net/http/pprof handlers
//
// The server binds before the sweep starts (so the printed URL is
// usable immediately) and is shut down gracefully when the run
// finishes.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// startServer binds addr and serves the observability endpoints in a
// background goroutine. Returns the resolved listen address (":0"
// picks a free port) and a shutdown function that stops accepting
// connections and waits briefly for in-flight responses to finish.
//
// The server carries read-header/read/idle timeouts so a slow or
// stalled client (slowloris) cannot pin connections open for the life
// of the sweep. WriteTimeout stays 0 on purpose: pprof profile
// endpoints stream for a caller-chosen duration.
func startServer(addr string, col *obs.Collector, prog *harness.Progress) (string, func(), error) {
	mux := http.DefaultServeMux // net/http/pprof registered itself here
	mux.Handle("/metrics", obs.MetricsHandler(col.Report))
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = prog.WriteJSON(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("contactbench: -http %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = srv.Serve(ln) }() // Serve always returns ErrServerClosed on Shutdown
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Past the grace period: close whatever is left rather
			// than hang process exit on a stuck client.
			_ = srv.Close()
		}
	}
	return ln.Addr().String(), shutdown, nil
}
