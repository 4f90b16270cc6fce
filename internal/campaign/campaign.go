// Package campaign is the fleet-audit engine: it runs every registered
// protocol target × analysis mode combination as one job graph and persists
// the outcome as a versioned, machine-readable audit bundle.
//
// This is the operational layer the paper's end goal implies (§1, §7): run
// Achilles continuously against a fleet of protocol implementations and
// catch Trojan-message regressions before attackers do. A single invocation
// of cmd/achilles audits one target and prints throwaway text; a campaign
// audits the whole registry catalog under one global -j budget and leaves a
// diffable artifact behind:
//
//   - jobs run on a bounded cross-target worker pool, so a cheap KV audit
//     proceeds on its own worker instead of queueing behind the Raft
//     exploration;
//   - all jobs share one concurrency-safe solver, so the
//     formula→verdict cache is warm across targets that emit structurally
//     identical queries;
//   - the result is a Bundle: a manifest (tool version, jobs, wall time,
//     structured counters) plus one JSONL Trojan report stream per job,
//     where every class carries the stable fingerprint used for diffing.
//
// Diff compares two bundles class-by-class (appeared / disappeared /
// changed), which is what the conformance suite and CI consume instead of
// ad-hoc text output.
//
// Campaigns are incremental: every manifest entry records the job's input
// fingerprint (registry.Descriptor.InputFingerprint — NL model sources,
// exec options, mode, engine/solver/campaign revisions), and a run given a
// baseline bundle (Options.Baseline) reuses baseline reports verbatim for
// jobs whose fingerprint matches a clean entry, re-running only changed,
// new, failed or truncated jobs. Reused entries are marked Cached so the
// manifest never overstates what ran, and a repeated audit of an unchanged
// fleet costs fingerprint recomputation instead of O(catalog)
// re-exploration.
package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"achilles/internal/core"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
)

// Version identifies the campaign engine revision recorded in manifests.
// Bump it when the analysis pipeline changes in a way that makes bundles
// incomparable (class line format, negate semantics, solver fragment).
const Version = "achilles-audit/1"

// Job is one unit of the campaign graph: a registered target analysed in
// one mode.
type Job struct {
	Target string    // canonical registry name
	Mode   core.Mode // analysis mode
}

// Key is the job's stable identity in manifests and diffs.
func (j Job) Key() string { return j.Target + "/" + j.Mode.String() }

// ReportFile returns the name of the job's JSONL report stream inside a
// bundle directory.
func (j Job) ReportFile() string { return reportFileName(j) }

// Options configure a campaign run.
type Options struct {
	// Targets lists registry names to audit; empty means every registered
	// target.
	Targets []string
	// Modes lists the analysis modes to run per target; empty means
	// ModeOptimized only.
	Modes []core.Mode
	// Jobs is the global parallelism budget (the -j knob): it bounds the
	// total number of analysis workers across the whole campaign, shared
	// between concurrently running jobs. Values <= 0 mean 1.
	Jobs int
	// Solver is the shared solver; nil creates one solver.Default() whose
	// verdict cache is shared by every job of the campaign.
	Solver *solver.Solver
	// Baseline is a previous bundle (typically Read from disk). A job whose
	// input fingerprint matches a clean baseline entry — same fingerprint,
	// no error, not truncated — reuses the baseline reports verbatim and is
	// marked Cached in the manifest; changed, new, failed and truncated
	// jobs re-run. Nil disables reuse.
	Baseline *Bundle
	// BaselineDir is recorded in the manifest for provenance when Baseline
	// is set (it does not affect reuse decisions).
	BaselineDir string
	// Extra lists campaign-local descriptors resolvable by this run in
	// addition to the global registry — the mutation engine injects its
	// generated mutant targets here without registering them globally.
	// Extras shadow registry entries of the same name and are appended to
	// the default plan when Targets is empty. Aliases are ignored.
	//
	// Extra descriptors carry function values and therefore only execute on
	// the in-process backend; a distributed Executor fails such jobs with a
	// "disappeared from the registry" manifest error.
	Extra []registry.Descriptor
	// Executor selects the execution backend for jobs that actually run.
	// Nil means the in-process LocalExecutor (the historical engine); a
	// dispatch.Coordinator runs jobs on worker subprocesses instead. The
	// campaign never closes the executor — its creator owns its lifetime.
	Executor Executor
	// Observe, when non-nil, supplies the observer for each job the
	// in-process backend starts, called once per job just before its
	// analysis runs; achillesd streams a job's phase, Trojan and progress
	// events to its SSE subscribers through it. Like Extra it holds a
	// function value, so only LocalExecutor honours it.
	Observe func(Job) core.Observer
	// ShuffleSeed is a scheduling-jitter test hook: when nonzero, the order
	// jobs are fed to the executor lanes is shuffled deterministically from
	// this seed instead of following plan order. Results are unaffected —
	// manifest entries stay in plan order and per-job class sets are
	// order-independent — so this only perturbs which lane picks up which
	// job when; the -race stress guard uses it to widen the schedule space
	// and logs the seed so a failing interleaving can be replayed.
	ShuffleSeed int64
}

// lookupTarget resolves a target name against the campaign-local extras
// first, then the global registry.
func (o Options) lookupTarget(name string) (registry.Descriptor, bool) {
	for i := range o.Extra {
		if o.Extra[i].Name == name {
			return o.Extra[i], true
		}
	}
	return registry.Lookup(name)
}

// Plan expands the options into the concrete job list, in deterministic
// (target, mode) order. Unknown target names are an error.
func Plan(opts Options) ([]Job, error) {
	names := opts.Targets
	if len(names) == 0 {
		names = registry.Names()
		for i := range opts.Extra {
			names = append(names, opts.Extra[i].Name)
		}
		sort.Strings(names)
	} else {
		canon := make([]string, len(names))
		for i, n := range names {
			d, ok := opts.lookupTarget(n)
			if !ok {
				return nil, fmt.Errorf("campaign: unknown target %q (registered: %v)", n, registry.Names())
			}
			canon[i] = d.Name
		}
		sort.Strings(canon)
		names = canon
	}
	modes := opts.Modes
	if len(modes) == 0 {
		modes = []core.Mode{core.ModeOptimized}
	}
	var jobs []Job
	seen := map[string]bool{}
	for _, n := range names {
		for _, m := range modes {
			j := Job{Target: n, Mode: m}
			if seen[j.Key()] {
				continue
			}
			seen[j.Key()] = true
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// Run executes the campaign and returns the in-memory bundle. The job graph
// runs on min(Jobs, jobs-to-run) pool workers; the global budget is split
// across them with the remainder distributed (SplitBudget), so the campaign
// runs ~Jobs analysis workers in total and never floors slots away. Because
// the per-job Trojan class set is parallelism-independent (the core
// contract), the bundle's class sets are identical for every Jobs value.
//
// With Options.Baseline set the run is incremental: every job's input
// fingerprint (registry.Descriptor.InputFingerprint, salted with the
// campaign Version) is compared against the baseline manifest, and clean
// matches reuse the baseline reports verbatim — marked Cached so the
// manifest stays honest about what actually ran. Only changed, new,
// previously-failed or truncated jobs execute.
//
// A job that fails is recorded in its manifest entry (Error field) rather
// than aborting the campaign; Run returns an error only when the plan
// itself is invalid.
func Run(opts Options) (*Bundle, error) {
	return RunCtx(context.Background(), opts)
}

// RunCtx is Run under a context: cancellation (SIGINT, a -timeout deadline)
// aborts in-flight jobs mid-exploration and skips unstarted ones. The
// returned bundle is still complete as an artifact — every planned job has
// a manifest entry — but interrupted jobs carry an Error ("interrupted: …")
// and no report stream, and the manifest's Interrupted flag is set. An
// interrupted bundle is refused both as an incremental baseline
// (reuseFromBaseline) and by the golden gate: a campaign that did not
// finish must never be mistaken for the fleet's ground truth. RunCtx
// returns ctx.Err() alongside the bundle so callers can exit distinctly.
func RunCtx(ctx context.Context, opts Options) (*Bundle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jobs, err := Plan(opts)
	if err != nil {
		return nil, err
	}
	budget := opts.Jobs
	if budget <= 0 {
		budget = 1
	}
	sol := opts.Solver
	if sol == nil {
		sol = solver.Default()
	}
	// A shared solver (the daemon's) carries earlier runs' work: the
	// manifest counts only what this run adds.
	before := sol.Stats()

	b := &Bundle{
		Manifest: Manifest{
			FormatVersion: FormatVersion,
			Tool:          Version,
			Jobs:          budget,
			CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		},
		Reports: map[string][]Report{},
	}
	runs := make([]RunManifest, len(jobs))
	reports := make([][]Report, len(jobs))

	// Fingerprint every job up front (campaign-local extras resolve first):
	// fingerprints decide baseline reuse here and are recorded in the
	// manifest either way, so THIS bundle can serve as the next run's
	// baseline — and they are the shard key a distributed executor
	// partitions the job graph by.
	fps := make([]string, len(jobs))
	for i, j := range jobs {
		if d, ok := opts.lookupTarget(j.Target); ok {
			fps[i] = d.InputFingerprint(j.Mode, Version)
		}
	}

	start := time.Now()
	var toRun []int
	for i, j := range jobs {
		if rm, reps, ok := reuseFromBaseline(opts.Baseline, j, fps[i]); ok {
			runs[i], reports[i] = rm, reps
			continue
		}
		toRun = append(toRun, i)
	}

	exec := opts.Executor
	if exec == nil {
		exec = NewLocalExecutor(opts, sol)
	}
	pending := make([]PlannedJob, len(toRun))
	for k, i := range toRun {
		pending[k] = PlannedJob{Job: jobs[i], Fingerprint: fps[i]}
	}
	if opts.ShuffleSeed != 0 {
		rng := rand.New(rand.NewSource(opts.ShuffleSeed))
		rng.Shuffle(len(toRun), func(a, b int) { toRun[a], toRun[b] = toRun[b], toRun[a] })
	}
	grants := exec.Negotiate(budget, pending)
	if len(grants) == 0 && len(toRun) > 0 {
		// Defensive: a backend must never negotiate the fleet to a halt with
		// jobs still pending. Fall back to one full-budget lane.
		grants = []int{budget}
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for _, grant := range grants {
		grant := grant
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					// Unstarted job after the cancel: record it as
					// interrupted instead of silently dropping the entry.
					runs[i] = InterruptedManifest(jobs[i], ctx.Err())
					continue
				}
				runs[i], reports[i] = exec.Run(ctx, jobs[i], grant)
			}
		}()
	}
	for _, i := range toRun {
		next <- i
	}
	close(next)
	wg.Wait()

	b.Manifest.WallMS = time.Since(start).Milliseconds()
	b.Manifest.Interrupted = ctx.Err() != nil
	if opts.Baseline != nil {
		b.Manifest.Baseline = opts.BaselineDir
	}
	for i := range jobs {
		runs[i].InputFingerprint = fps[i]
		if runs[i].Cached {
			b.Manifest.CachedJobs++
		}
		b.Manifest.Runs = append(b.Manifest.Runs, runs[i])
		// Failed jobs have no report stream — leave them out of Reports so
		// an in-memory bundle matches its own write→read round trip (Read
		// skips errored manifest entries too).
		if runs[i].Error == "" {
			b.Reports[jobs[i].Key()] = reports[i]
		}
	}
	st := sol.Stats()
	b.Manifest.Solver = Counters{
		"queries":      int64(st.Queries - before.Queries),
		"cache_hits":   int64(st.CacheHits - before.CacheHits),
		"cache_misses": int64(st.CacheMisses - before.CacheMisses),
		"unknowns":     int64(st.Unknowns - before.Unknowns),
	}
	return b, ctx.Err()
}

// InterruptedManifest records a job that cancellation prevented from running
// (or finishing). The Error marking matters beyond display: errored entries
// carry no report stream and are never reused as a baseline. Execution
// backends use it so an interrupted job looks the same whichever backend ran
// the campaign.
func InterruptedManifest(j Job, cause error) RunManifest {
	return ErrorManifest(j, "interrupted: "+cause.Error())
}

// ErrorManifest records a job that could not run, with the backend's reason —
// e.g. a distributed backend whose entire worker pool died.
func ErrorManifest(j Job, msg string) RunManifest {
	return RunManifest{
		Target:     j.Target,
		Mode:       j.Mode.String(),
		ReportFile: reportFileName(j),
		Error:      msg,
	}
}

// reuseFromBaseline decides whether a job may skip execution: the baseline
// must come from a campaign that ran to completion (an interrupted bundle is
// refused wholesale — it exists to show what a cut-short run saw, not to
// seed future runs), and must hold a manifest entry for the same job key
// that succeeded, was not truncated, carries a fingerprint, matches the
// job's current fingerprint, and has a report stream consistent with its
// class count. The returned manifest entry is the baseline's, marked Cached
// with WallMS zeroed (no work happened in this run).
func reuseFromBaseline(base *Bundle, j Job, fp string) (RunManifest, []Report, bool) {
	if base == nil || base.Manifest.Interrupted || fp == "" {
		return RunManifest{}, nil, false
	}
	for _, rm := range base.Manifest.Runs {
		if rm.Key() != j.Key() {
			continue
		}
		if rm.Error != "" || rm.Truncated || rm.InputFingerprint == "" || rm.InputFingerprint != fp {
			return RunManifest{}, nil, false
		}
		reps, ok := base.Reports[j.Key()]
		if !ok || len(reps) != rm.Classes {
			return RunManifest{}, nil, false
		}
		out := rm
		out.Cached = true
		out.WallMS = 0
		return out, append([]Report{}, reps...), true
	}
	return RunManifest{}, nil, false
}

// SplitBudget distributes the global -j budget over the pool workers:
// every worker gets budget/workers, and the remainder lands on the first
// budget%workers workers — so a -j 8 campaign over 5 jobs runs 2+2+2+1+1
// analysis workers instead of flooring every job to 1 and idling 3 slots.
// The returned slice sums to exactly max(budget, workers). Every execution
// backend's Negotiate splits its grants with it.
func SplitBudget(budget, workers int) []int {
	out := make([]int, workers)
	if workers == 0 {
		return out
	}
	base := budget / workers
	extra := budget % workers
	if base < 1 {
		base, extra = 1, 0
	}
	for w := range out {
		out[w] = base
		if w < extra {
			out[w]++
		}
	}
	return out
}

// runJob executes one target×mode analysis with the shared solver and the
// given intra-job parallelism, and converts the outcome into its manifest
// entry and report stream. A job cancelled mid-exploration is recorded as
// interrupted: its partial class set is discarded — a bundle must never
// present a cut-short job as that target's result.
func runJob(ctx context.Context, j Job, d registry.Descriptor, ok bool, parallelism int, sol *solver.Solver, obs core.Observer) (RunManifest, []Report) {
	rm := RunManifest{
		Target:     j.Target,
		Mode:       j.Mode.String(),
		ReportFile: reportFileName(j),
	}
	if !ok {
		rm.Error = fmt.Sprintf("target %q disappeared from the registry", j.Target)
		return rm, nil
	}
	t0 := time.Now()
	tgt := d.Target()
	aopts := d.Analysis
	aopts.Mode = j.Mode
	aopts.Parallelism = parallelism
	aopts.Solver = sol
	aopts.Observer = obs
	run, err := core.RunCtx(ctx, tgt, aopts)
	rm.WallMS = time.Since(t0).Milliseconds()
	if ctxErr := ctx.Err(); ctxErr != nil {
		rm.Error = "interrupted: " + ctxErr.Error()
		return rm, nil
	}
	if err != nil {
		rm.Error = err.Error()
		return rm, nil
	}
	rm.Classes = len(run.Analysis.Trojans)
	rm.ClientPaths = len(run.Clients.Paths)
	rm.Truncated = run.Truncated()
	rm.Counters = run.Counters()
	return rm, reportsFromRun(tgt.FieldNames, run.Analysis.Trojans)
}

// reportsFromRun converts a completed analysis' Trojan classes into the
// bundle report stream, in canonical class-line order — so a bundle is a
// deterministic function of the class set, independent of discovery order
// and parallelism.
func reportsFromRun(fields []string, trojans []core.TrojanReport) []Report {
	reports := make([]Report, 0, len(trojans))
	for _, tr := range trojans {
		id := tr.Identity()
		rep := Report{
			Fingerprint: id.Fingerprint,
			ClassID:     id.ClassID,
			Class:       id.ClassLine,
			Witness:     id.Witness,
			Concrete:    tr.Concrete,
			Fields:      fields,
			Verified:    tr.VerifiedAccept && tr.VerifiedNotClient,
			PathLen:     tr.PathLen,
		}
		if len(tr.StateEnv) > 0 {
			rep.State = map[string]int64{}
			for k, v := range tr.StateEnv {
				rep.State[k] = v
			}
		}
		reports = append(reports, rep)
	}
	sort.Slice(reports, func(a, b int) bool { return reports[a].Class < reports[b].Class })
	return reports
}
