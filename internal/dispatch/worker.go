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
	"sync"
	"sync/atomic"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/solver"
)

// WorkerConfig configures one Serve loop.
type WorkerConfig struct {
	// Solver is the worker's verdict-cache-bearing solver; nil means
	// solver.Default(). The coordinator's seed merges into it (marked for
	// first-use re-verification); the verdicts it computes itself go back
	// only on a collect request.
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
// collect request is answered (and a dead coordinator noticed) mid-job.
func Serve(in io.Reader, out io.Writer, cfg WorkerConfig) error {
	sol := cfg.Solver
	if sol == nil {
		sol = solver.Default()
	}
	exit := cfg.exit
	if exit == nil {
		exit = os.Exit
	}
	w := &workerState{
		wire:   newWire(in, out),
		sol:    sol,
		seeded: map[string]bool{},
	}
	if err := w.send(helloMessage()); err != nil {
		return fmt.Errorf("dispatch: worker hello: %w", err)
	}

	// The reader goroutine owns stdin: jobs flow to the execution loop, the
	// seed and collect requests are handled here (the solver is
	// concurrency-safe), and EOF/shutdown cancels the context so an in-flight
	// exploration stops instead of orphaning a full-speed analysis under a
	// dead coordinator.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make(chan message)
	var readErr error
	go func() {
		defer cancel()
		defer close(jobs)
		for {
			m, err := w.wire.read()
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
			case msgCache:
				w.seed(m.Entries)
			case msgCollect:
				w.send(message{Type: msgCache, ID: m.ID, Entries: w.learned()})
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
			w.send(message{Type: msgDone, ID: m.ID, Run: &campaign.RunManifest{
				Target: m.Target, Mode: m.Mode, Error: fmt.Sprintf("worker: bad mode %q: %v", m.Mode, err),
			}})
			continue
		}
		j := campaign.Job{Target: m.Target, Mode: mode}
		if cfg.CrashJob != "" && j.Key() == cfg.CrashJob && claimCrashOnce(cfg.CrashOnce) {
			exit(1)
		}
		w.runJob(ctx, m.ID, j, m.Parallelism)
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

// workerState is the mutable half a Serve loop threads through its
// goroutines.
type workerState struct {
	wire *wire
	sol  *solver.Solver

	wmu sync.Mutex // serialises writes: job results, progress, collect replies

	seeded map[string]bool // keys the coordinator sent; reader goroutine only
}

func (w *workerState) send(m message) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.wire.write(m)
}

// seed folds the coordinator's cache into the local solver and remembers
// its keys, so collect replies carry only what this worker computed.
func (w *workerState) seed(entries []solver.CacheEntry) {
	for _, e := range entries {
		w.seeded[e.Key] = true
	}
	// Invalid entries reject the batch; a coordinator speaking this proto
	// never produces them, and a worker must not die over a bad seed.
	w.sol.ImportCache(entries)
}

// learned returns the verdicts this worker computed itself: its cache minus
// the seed.
func (w *workerState) learned() []solver.CacheEntry {
	all, err := w.sol.ExportCache()
	if err != nil {
		return nil
	}
	own := all[:0]
	for _, e := range all {
		if !w.seeded[e.Key] {
			own = append(own, e)
		}
	}
	return own
}

// runJob executes one assignment and streams the outcome: progress ticks
// while exploring, then the canonical report stream and the completion
// manifest.
func (w *workerState) runJob(ctx context.Context, id int, j campaign.Job, parallelism int) {
	var classes atomic.Int64
	obs := core.Observer{
		OnTrojan: func(core.TrojanReport) { classes.Add(1) },
		OnProgress: func(p core.Progress) {
			// Best-effort: a lost progress tick must not fail the job.
			w.send(message{Type: msgProgress, ID: id, States: p.StatesExplored, Classes: int(classes.Load())})
		},
	}
	rm, reports := campaign.ExecuteJob(ctx, j, parallelism, w.sol, obs)
	for i := range reports {
		if err := w.send(message{Type: msgReport, ID: id, Report: &reports[i]}); err != nil {
			return // pipe gone; the coordinator has already requeued us
		}
	}
	w.send(message{Type: msgDone, ID: id, Run: &rm})
}
