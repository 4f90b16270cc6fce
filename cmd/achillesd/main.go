// Command achillesd serves Trojan-message audits over HTTP — the daemon
// face of the pipeline behind achilles-audit (see internal/serve).
//
// Usage:
//
//	achillesd [-addr HOST:PORT] [-j N] [-quota N] [-store DIR]
//	          [-drain-timeout DURATION]
//
// Clients POST audit jobs to /v1/jobs, follow them as server-sent events on
// /v1/jobs/{id}/events, and fetch the persisted bundles — byte-identical to
// achilles-audit bundles for the same inputs — from the content-addressed
// store under /v1/bundles. All concurrent jobs share one -j worker budget,
// one solver (so the verdict cache stays warm across jobs), and one bundle
// store. Per-client concurrency is capped at -quota in-flight jobs; beyond
// it, submissions are rejected with 429 + Retry-After.
//
// The daemon prints "achillesd: listening on ADDR" once the listener is up
// (with the resolved port when -addr ends in :0), answers /healthz and
// /metrics, and drains gracefully on SIGINT/SIGTERM: /healthz flips to 503,
// running sessions are cancelled mid-frontier and their interrupted bundles
// persisted, open event streams end with their terminal done event, the
// listener closes once connections go idle, and the process exits 0 when
// every job goroutine has unwound — or 3 if the drain exceeds
// -drain-timeout. A listener failure after startup runs the same drain
// before exiting 1. Usage errors (unknown flags, bad -j, an address already
// in use) exit 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	_ "achilles/internal/protocols"
	"achilles/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for the re-exec exit-code tests.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("achillesd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7373", "listen address (use :0 for an ephemeral port)")
	jobs := fs.Int("j", runtime.NumCPU(), "global analysis worker budget shared by all concurrent jobs")
	quota := fs.Int("quota", 4, "max in-flight jobs per client before 429 backpressure")
	store := fs.String("store", "achillesd-store", "content-addressed bundle store directory")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for running jobs to unwind")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "achillesd: invalid -j %d (must be >= 1)\n", *jobs)
		fs.Usage()
		return 2
	}
	if *quota < 1 {
		fmt.Fprintf(stderr, "achillesd: invalid -quota %d (must be >= 1)\n", *quota)
		fs.Usage()
		return 2
	}
	if *drainTimeout <= 0 {
		fmt.Fprintf(stderr, "achillesd: invalid -drain-timeout %v (must be > 0)\n", *drainTimeout)
		fs.Usage()
		return 2
	}

	srv, err := serve.New(serve.Config{
		Workers:     *jobs,
		ClientQuota: *quota,
		StoreDir:    *store,
	})
	if err != nil {
		fmt.Fprintln(stderr, "achillesd:", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// Address in use, bad host, privileged port — all user input problems.
		fmt.Fprintln(stderr, "achillesd:", err)
		return 2
	}
	// The signal handler must be in place before the listen address is
	// announced: the announcement is what tells supervisors (and the re-exec
	// tests) the daemon is ready, and a SIGTERM that lands before Notify
	// would kill the process instead of draining it.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "achillesd: listening on %s (workers %d, quota %d, store %s)\n",
		ln.Addr(), *jobs, *quota, *store)

	exit := 0
	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "achillesd: %v — draining\n", sig)
	case err := <-serveErr:
		// A listener failure is no reason to abandon in-flight jobs: fall
		// through to the same drain epilogue the signal path runs, then
		// report the serve error.
		fmt.Fprintln(stderr, "achillesd:", err)
		exit = 1
	}
	signal.Stop(sigCh)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Cancel the jobs before shutting the HTTP server down: an open event
	// stream only ends once its job is terminal, so the reverse order would
	// leave httpSrv.Shutdown blocked on live SSE connections for the whole
	// drain window and then hand srv.Shutdown an already-expired context.
	// After Drain, streams finish with their done event, connections go
	// idle, and httpSrv.Shutdown returns; srv.Shutdown then waits for the
	// job goroutines to persist their (interrupted) bundles and unwind.
	srv.Drain()
	httpSrv.Shutdown(ctx)
	drainErr := srv.Shutdown(ctx)
	if exit != 0 {
		return exit
	}
	if drainErr != nil {
		fmt.Fprintln(stderr, "achillesd:", drainErr)
		return 3
	}
	fmt.Fprintln(stdout, "achillesd: drained cleanly")
	return 0
}
