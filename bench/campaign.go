package main

// The campaign workloads: one audit is `achilles-audit run -j 2` over all
// registry targets — campaign.RunCtx with a fresh solver, then Bundle.Write
// into a fresh directory — either in process (fleet) or on two achilles-worker
// processes spawned for the audit and closed after it, as the CLI does
// (workers).

import (
	"context"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/dispatch"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
)

type campaignBackend struct {
	e       *env
	workers int // worker processes per audit; 0 runs the campaign in process
	targets []string
	traced  []tracedBundle // traced audits, for finish
}

// tracedBundle is a traced audit's bundle, kept on disk until finish.
type tracedBundle struct {
	tr     *auditTrace
	bundle *campaign.Bundle
	dir    string
}

func setupFleet(e *env) (backend, error) {
	b := &campaignBackend{e: e, targets: registry.Names()}
	return b, warmUp(e, b)
}

func setupWorkers(e *env) (backend, error) {
	if _, err := os.Stat(e.cfg.workerBin); err != nil {
		return nil, fmt.Errorf("achilles-worker binary not found, pass -worker-bin: %w", err)
	}
	b := &campaignBackend{e: e, workers: 2, targets: registry.Names()}
	return b, warmUp(e, b)
}

func (b *campaignBackend) audit(ctx context.Context, _ int, tr *auditTrace) outcome {
	dir, err := b.e.scratch("bundle-")
	if err != nil {
		return outcome{failure: err.Error()}
	}
	keep := false
	defer func() {
		if !keep {
			os.RemoveAll(dir)
		}
	}()

	start := time.Now()
	root := tr.open(0, "audit")
	sol := solver.Default()
	opts := campaign.Options{Jobs: jobs, Solver: sol}
	ex := &timedExecutor{tr: tr, sol: sol, span: "campaign.job", start: start}
	var coord *dispatch.Coordinator
	if b.workers > 0 {
		id := tr.open(root, "dispatch.start")
		coord, err = dispatch.Start(dispatch.Config{Workers: b.workers, Command: []string{b.e.cfg.workerBin}, Solver: sol})
		tr.close(id)
		if err != nil {
			return outcome{failure: err.Error()}
		}
		ex.inner = coord
	} else {
		ex.inner = campaign.NewLocalExecutor(opts, sol)
		ex.observe = tr != nil
	}
	opts.Executor = ex
	ex.parent = tr.open(root, "campaign.run")
	bundle, err := campaign.RunCtx(ctx, opts)
	tr.close(ex.parent)
	if coord != nil {
		id := tr.open(root, "dispatch.close")
		coord.Close()
		tr.close(id)
	}
	if err != nil {
		return outcome{failure: "campaign: " + err.Error()}
	}
	id := tr.open(root, "campaign.bundle_write")
	err = bundle.Write(dir)
	tr.close(id)
	o := outcome{dur: time.Since(start), firstTrojan: ex.firstTrojan()}
	tr.close(root)
	if err != nil {
		o.failure = err.Error()
	} else {
		o.failure = checkBundle(bundle, b.e.goldens)
	}
	if o.failure != "" || tr == nil {
		return o
	}

	jobMS := tr.sum(ex.span)
	busy := ratio(jobMS, float64(ex.lanes)*tr.dur(ex.parent))
	tr.set("campaign.job_ms_sum", jobMS)
	tr.set("campaign.slowest_job_ms", tr.longest(ex.span))
	tr.set("campaign.lane_busy_frac", busy)
	tr.set("campaign.overhead_ms", tr.self(ex.parent))
	countLayers(tr, manifestCounters(bundle.Manifest))
	if b.workers == 0 {
		solverLayers(tr.set, sol.Stats(), 1)
	} else {
		tr.set("dispatch.job_ms_sum", jobMS)
		tr.set("dispatch.lane_busy_frac", busy)
	}
	b.traced = append(b.traced, tracedBundle{tr, bundle, dir})
	keep = true
	return o
}

// finish times the layers a traced audit ran inside calls the benchmark
// cannot split, by repeating those calls on the audit's own inputs and
// bundle: compile, fingerprint, content hash, read back. On workers the
// analyses ran in the worker processes, out of sight, so the same campaign
// is replayed in process for the core and solver layers and for the dispatch
// overhead over in-process jobs.
func (b *campaignBackend) finish() (map[string]float64, error) {
	for _, t := range b.traced {
		if f := b.repeat(t); f != "" {
			return nil, fmt.Errorf("traced audit %d: %s", t.tr.id, f)
		}
	}
	if b.workers == 0 {
		return nil, nil
	}
	return map[string]float64{"dispatch.worker_peak_rss_mb": maxRSSMB(syscall.RUSAGE_CHILDREN)}, nil
}

func (b *campaignBackend) repeat(t tracedBundle) string {
	tr := t.tr
	compileTargets(tr, b.targets)
	start := time.Now()
	for _, rm := range t.bundle.Manifest.Runs {
		mode, _ := core.ParseMode(rm.Mode)
		registry.MustLookup(rm.Target).InputFingerprint(mode, campaign.Version)
	}
	tr.record(0, "campaign.fingerprint", start, time.Now())
	start = time.Now()
	hash, err := t.bundle.ContentHash()
	tr.record(0, "campaign.content_hash", start, time.Now())
	if err != nil {
		return err.Error()
	}
	start = time.Now()
	back, err := campaign.Read(t.dir)
	tr.record(0, "campaign.bundle_read", start, time.Now())
	if err != nil {
		return err.Error()
	}
	if h, _ := back.ContentHash(); h != hash {
		return "bundle read back with content hash " + h + ", written " + hash
	}
	if b.workers == 0 {
		return ""
	}

	ctx, cancel := context.WithTimeout(context.Background(), b.e.timeout)
	defer cancel()
	sol := solver.Default()
	twin := &timedExecutor{tr: tr, sol: sol, span: "twin.job", observe: true, start: time.Now()}
	opts := campaign.Options{Jobs: jobs, Solver: sol, Executor: twin}
	twin.inner = campaign.NewLocalExecutor(opts, sol)
	twin.parent = tr.open(0, "twin.run")
	replay, err := campaign.RunCtx(ctx, opts)
	tr.close(twin.parent)
	if err != nil {
		return "in-process replay: " + err.Error()
	}
	if f := checkBundle(replay, b.e.goldens); f != "" {
		return "in-process replay: " + f
	}
	solverLayers(tr.set, sol.Stats(), 1)
	tr.set("dispatch.job_overhead_ms", tr.sum("campaign.job")-tr.sum(twin.span))
	return ""
}

func (b *campaignBackend) units() []probeUnit { return registryUnits(b.targets) }

func (b *campaignBackend) close() error { return nil }

// timedExecutor wraps a campaign backend — the in-process pool or a
// dispatch.Coordinator — to time every job from outside and to see when the
// first job with Trojans completes. With observe set it runs each job through
// campaign.ExecuteJob with a phase observer on the same solver, which for
// registry targets is what LocalExecutor.Run does, so the core phases of every
// job become child spans. Its creator closes the wrapped backend.
type timedExecutor struct {
	inner   campaign.Executor
	sol     *solver.Solver
	observe bool
	tr      *auditTrace
	span    string // name of the job spans
	parent  int    // span the job spans hang under
	start   time.Time
	lanes   int

	mu    sync.Mutex
	first time.Duration
}

func (x *timedExecutor) Negotiate(budget int, pending []campaign.PlannedJob) []int {
	grants := x.inner.Negotiate(budget, pending)
	x.lanes = len(grants)
	return grants
}

func (x *timedExecutor) Run(ctx context.Context, j campaign.Job, parallelism int) (campaign.RunManifest, []campaign.Report) {
	id := x.tr.open(x.parent, x.span)
	var rm campaign.RunManifest
	var reps []campaign.Report
	if x.observe {
		ph := newPhaseRecorder(x.tr, id, x.start)
		rm, reps = campaign.ExecuteJob(ctx, j, parallelism, x.sol, ph.observer())
		ph.done()
	} else {
		rm, reps = x.inner.Run(ctx, j, parallelism)
	}
	x.tr.close(id)
	if rm.Error == "" && rm.Classes > 0 {
		t := time.Since(x.start)
		x.mu.Lock()
		if x.first == 0 || t < x.first {
			x.first = t
		}
		x.mu.Unlock()
	}
	return rm, reps
}

func (x *timedExecutor) Close() error { return nil }

func (x *timedExecutor) firstTrojan() time.Duration {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.first
}
