package campaign

// The execution-backend seam. Until the distributed refactor, RunCtx inlined
// its worker pool: plan the job graph, split the -j budget, run every job in
// this process. Executor extracts exactly that contract so the same campaign
// loop — baseline reuse, manifest assembly, interrupt bookkeeping — can feed
// jobs to different backends:
//
//   - LocalExecutor re-homes the historical in-process pool. It is the
//     default (Options.Executor == nil) and produces byte-identical bundles
//     to the pre-seam engine;
//   - internal/dispatch.Coordinator runs jobs on worker subprocesses over a
//     versioned JSONL stdio protocol — the distributed backend behind
//     `achilles-audit run -workers N`.
//
// The seam is deliberately job-granular: Run takes one job and returns its
// manifest entry plus report stream, so scheduling (lane count, budget
// split, worker choice, crash requeue) stays a backend concern while result
// semantics — what a finished, failed, truncated or interrupted job looks
// like — stay defined in one place, here. Whatever the backend, the per-job
// class set is a deterministic function of the job's inputs (the core
// contract pinned since PR 1), which is what keeps bundles ContentHash-equal
// across backends and worker counts.

import (
	"context"

	"achilles/internal/core"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
)

// PlannedJob pairs a job with its input fingerprint (the one that drives
// incremental baseline reuse). No backend reads Fingerprint: both grant
// lanes from the pending count alone. The field stays because the
// benchmark's executor wrapper implements Executor with this signature.
type PlannedJob struct {
	Job         Job
	Fingerprint string
}

// Executor is a campaign execution backend.
//
// The campaign engine calls Negotiate once per run with the global -j budget
// and the fingerprinted jobs that actually need to execute (after baseline
// reuse), then starts one feeder lane per returned grant; lane i issues
// sequential Run calls with parallelism grants[i]. Run must always return a
// usable manifest entry — backends report failures (a crashed worker pool, a
// vanished target) through RunManifest.Error, never by panicking or blocking
// forever. When the context is cancelled, in-flight Run calls must return
// promptly with an "interrupted: …" error entry, matching the local
// backend's semantics.
//
// Close releases backend resources (worker subprocesses, pipes). The
// campaign engine never closes an executor it was given — the caller that
// created the backend owns its lifetime, because a backend (and its warmed
// caches) may serve several campaigns.
type Executor interface {
	Negotiate(budget int, pending []PlannedJob) []int
	Run(ctx context.Context, j Job, parallelism int) (RunManifest, []Report)
	Close() error
}

// LocalExecutor is the in-process backend: jobs run on this process's
// goroutines against one shared solver, exactly as the pre-seam campaign
// engine ran them. It resolves targets through the campaign options, so
// campaign-local Extra descriptors (the mutation engine's generated
// variants) work here and only here — descriptors carry function values
// that cannot cross a process boundary.
type LocalExecutor struct {
	opts Options
	sol  *solver.Solver
}

// NewLocalExecutor returns the in-process backend for the given options,
// sharing sol's verdict cache across every job it runs. A nil solver gets
// solver.Default().
func NewLocalExecutor(opts Options, sol *solver.Solver) *LocalExecutor {
	if sol == nil {
		sol = solver.Default()
	}
	return &LocalExecutor{opts: opts, sol: sol}
}

// Negotiate reproduces the historical pool sizing: min(budget, pending)
// lanes, with the budget's remainder distributed so no slot is floored away
// (SplitBudget).
func (e *LocalExecutor) Negotiate(budget int, pending []PlannedJob) []int {
	return SplitBudget(budget, min(budget, len(pending)))
}

// Run executes one job in-process with the lane's parallelism grant and the
// observer Options.Observe supplies for it.
func (e *LocalExecutor) Run(ctx context.Context, j Job, parallelism int) (RunManifest, []Report) {
	d, ok := e.opts.lookupTarget(j.Target)
	var obs core.Observer
	if e.opts.Observe != nil {
		obs = e.opts.Observe(j)
	}
	return runJob(ctx, j, d, ok, parallelism, e.sol, obs)
}

// Close is a no-op: the local backend holds no resources beyond the solver
// its caller owns.
func (e *LocalExecutor) Close() error { return nil }

// ExecuteJob runs one job against the global registry with the given solver
// — the single-job execution path shared by the local backend and the
// achilles-worker subprocess, so a job computes the same manifest entry and
// report stream whichever process hosts it. The observer streams live
// phase/Trojan/progress events to an in-process caller; the worker passes
// core.Observer{}. A nil solver gets solver.Default().
func ExecuteJob(ctx context.Context, j Job, parallelism int, sol *solver.Solver, obs core.Observer) (RunManifest, []Report) {
	if sol == nil {
		sol = solver.Default()
	}
	d, ok := registry.Lookup(j.Target)
	return runJob(ctx, j, d, ok, parallelism, sol, obs)
}
