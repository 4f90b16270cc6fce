package dispatch

// The worker half of the protocol: a loop over stdin/stdout that executes
// assigned jobs with this process's own solver and streams results back.
// cmd/achilles-worker wraps Serve around os.Stdin/os.Stdout; tests run it
// in-process over pipes.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/solver"
)

// WorkerConfig configures one Serve loop.
type WorkerConfig struct {
	// Solver answers every job the worker runs, so jobs on one worker share
	// its verdict cache; nil means solver.Default().
	Solver *solver.Solver

	// CrashJob and CrashOnce are the crash-recovery fault injection used by
	// the requeue tests and the CI distributed-smoke job: when a job whose
	// Key() equals CrashJob is assigned AND the CrashOnce sentinel file can
	// be created exclusively (O_EXCL — so exactly one worker across the
	// fleet crashes, and a requeue of the same job elsewhere proceeds), the
	// worker terminates the whole process mid-protocol via exit(1),
	// simulating an abrupt kill. Empty means disabled. Test hook only:
	// wired from ACHILLES_WORKER_CRASH_JOB / ACHILLES_WORKER_CRASH_ONCE by
	// cmd/achilles-worker, never set in production.
	CrashJob  string
	CrashOnce string

	// exit overrides os.Exit for the crash hook (tests).
	exit func(int)
}

// Serve speaks the worker side of the dispatch protocol over in/out until
// the coordinator sends shutdown or closes the pipe. It returns nil on a
// clean shutdown or EOF and an error on a malformed stream. Jobs execute
// one at a time — the coordinator's per-worker parallelism grant governs
// intra-job concurrency — while the pipe is drained concurrently, so a
// dead coordinator is noticed mid-job.
func Serve(in io.Reader, out io.Writer, cfg WorkerConfig) error {
	sol := cfg.Solver
	if sol == nil {
		sol = solver.Default()
	}
	exit := cfg.exit
	if exit == nil {
		exit = os.Exit
	}
	w := newWire(in, out)
	if err := w.write(helloMessage()); err != nil {
		return fmt.Errorf("dispatch: worker hello: %w", err)
	}

	// The reader goroutine owns stdin: jobs flow to the execution loop, and
	// EOF/shutdown cancels the context so an in-flight exploration stops
	// instead of orphaning a full-speed analysis under a dead coordinator.
	// Only the execution loop writes to stdout.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make(chan message)
	var readErr error
	go func() {
		defer cancel()
		defer close(jobs)
		for {
			m, err := w.read()
			if err != nil {
				if !errors.Is(err, io.EOF) && ctx.Err() == nil {
					readErr = err
				}
				return
			}
			switch m.Type {
			case msgJob:
				select {
				case jobs <- m:
				case <-ctx.Done():
					return
				}
			case msgShutdown:
				return
			default:
				// Unknown message types are ignored for forward
				// compatibility — the hello handshake already pinned the
				// revisions that matter.
			}
		}
	}()

	for m := range jobs {
		mode, err := core.ParseMode(m.Mode)
		if err != nil {
			w.write(message{Type: msgDone, ID: m.ID, Run: &campaign.RunManifest{
				Target: m.Target, Mode: m.Mode, Error: fmt.Sprintf("worker: bad mode %q: %v", m.Mode, err),
			}})
			continue
		}
		j := campaign.Job{Target: m.Target, Mode: mode}
		if cfg.CrashJob != "" && j.Key() == cfg.CrashJob && claimCrashOnce(cfg.CrashOnce) {
			exit(1)
		}
		runJob(ctx, w, sol, m.ID, j, m.Parallelism)
	}
	return readErr
}

// claimCrashOnce atomically claims the crash sentinel; only the claimant
// crashes, so a requeued job survives on the next worker.
func claimCrashOnce(path string) bool {
	if path == "" {
		return true
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// runJob executes one assignment on sol and streams the outcome: the
// canonical report stream, then the completion manifest.
func runJob(ctx context.Context, w *wire, sol *solver.Solver, id int, j campaign.Job, parallelism int) {
	rm, reports := campaign.ExecuteJob(ctx, j, parallelism, sol, core.Observer{})
	for i := range reports {
		if err := w.write(message{Type: msgReport, ID: id, Report: &reports[i]}); err != nil {
			return // pipe gone; the coordinator has already requeued us
		}
	}
	w.write(message{Type: msgDone, ID: id, Run: &rm})
}
