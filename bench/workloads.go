package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	_ "achilles/internal/protocols"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
	"achilles/internal/symexec"
)

// jobs is the -j budget of every workload: fixed rather than NumCPU, so
// numbers compare across machines.
const jobs = 2

// workload is one closed-loop traffic shape. Each client issues its next
// audit only when the previous one has finished.
type workload struct {
	name    string
	clients int
	// timeout fails an audit that has not finished by then — tens of times
	// its usual duration, so only a hang trips it.
	timeout time.Duration
	// restartEvery, when set, replaces the backend by a freshly set-up one
	// after that many audits. The daemon needs it: its heap grows with every
	// job it serves, and once it holds a few hundred MB the garbage collector
	// marks most of the time and jobs take two to three times longer. With
	// one daemon per run, a commit that serves more jobs in -seconds would be
	// judged in a later, slower and larger state than its parent; with a
	// fresh daemon every restartEvery jobs, every commit is measured over the
	// same daemon ages. The other workloads start every audit from a fresh
	// solver and hold no state that grows.
	restartEvery int
	setup        func(*env) (backend, error)
}

var workloads = map[string]workload{
	"fleet":    {name: "fleet", clients: 1, timeout: 20 * time.Second, setup: setupFleet},
	"fsp-rich": {name: "fsp-rich", clients: 1, timeout: 20 * time.Second, setup: setupRich},
	"workers":  {name: "workers", clients: 1, timeout: 30 * time.Second, setup: setupWorkers},
	"daemon":   {name: "daemon", clients: daemonClients, timeout: 30 * time.Second, restartEvery: 100, setup: setupDaemon},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// env is what a workload's setup gets: the run's flags, the golden corpus and
// a scratch directory that the run removes when it ends.
type env struct {
	cfg      config
	timeout  time.Duration // the workload's audit timeout
	goldens  map[string]string
	tmp      string
	backends int // backends set up before this one
}

func (e *env) scratch(prefix string) (string, error) { return os.MkdirTemp(e.tmp, prefix) }

// backend is a workload after setup.
type backend interface {
	// audit runs one audit for client c. tr is nil when the audit is not
	// traced.
	audit(ctx context.Context, c int, tr *auditTrace) outcome
	// finish ends a traced run once the loop is over. It first does the
	// work the benchmark repeats to time a layer an audit cannot split,
	// into the traces of the audits concerned; deferring it keeps it from
	// delaying or disturbing the audits that follow. Then it returns the
	// run-level per-layer values.
	finish() (map[string]float64, error)
	// units lists the analyses an audit runs, for the layer probe.
	units() []probeUnit
	close() error
}

// warmUp runs the untimed audit every setup ends with.
func warmUp(e *env, b backend) error {
	ctx, cancel := context.WithTimeout(context.Background(), e.timeout)
	defer cancel()
	if o := b.audit(ctx, 0, nil); o.failure != "" {
		return fmt.Errorf("warm-up audit: %s", o.failure)
	}
	return nil
}

// loadGoldens reads the golden corpus: target name → the exact file content,
// sorted canonical class lines one per line.
func loadGoldens(dir string) (map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden corpus in %s", dir)
	}
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out[strings.TrimSuffix(filepath.Base(p), ".golden")] = string(data)
	}
	return out, nil
}

// checkLines compares one analysis' sorted class lines with the golden file
// of its target; the golden holds in every analysis mode.
func checkLines(goldens map[string]string, job, target string, lines []string) string {
	want, ok := goldens[target]
	if !ok {
		return fmt.Sprintf("%s: no golden for target %q", job, target)
	}
	got := strings.Join(lines, "\n")
	if len(lines) > 0 {
		got += "\n"
	}
	if got != want {
		return fmt.Sprintf("%s: class set diverged from %s.golden (%d line(s))", job, target, len(lines))
	}
	return ""
}

// checkBundle is the correctness gate of a bundle: complete, every job
// clean, every report verified, every class set equal to its golden.
func checkBundle(b *campaign.Bundle, goldens map[string]string) string {
	if b.Manifest.Interrupted {
		return "bundle is interrupted"
	}
	if len(b.Manifest.Runs) == 0 {
		return "bundle has no jobs"
	}
	for _, rm := range b.Manifest.Runs {
		switch {
		case rm.Error != "":
			return fmt.Sprintf("%s: %s", rm.Key(), rm.Error)
		case rm.Truncated:
			return fmt.Sprintf("%s: truncated", rm.Key())
		}
		reps := b.Reports[rm.Key()]
		if len(reps) != rm.Classes {
			return fmt.Sprintf("%s: manifest says %d classes, %d reports", rm.Key(), rm.Classes, len(reps))
		}
		for _, r := range reps {
			if !r.Verified {
				return fmt.Sprintf("%s: unverified report %s", rm.Key(), r.ClassID)
			}
		}
		lines, _ := b.ClassLines(rm.Key())
		if f := checkLines(goldens, rm.Key(), rm.Target, lines); f != "" {
			return f
		}
	}
	return ""
}

// counterMetrics maps the flat run counters (core.RunResult.Counters, as
// persisted in manifests) onto per-layer metric names.
var counterMetrics = map[string]string{
	"client_paths":               "core.client_paths",
	"preprocess_disjuncts":       "core.preprocess.disjuncts",
	"preprocess_overlap_dropped": "core.preprocess.overlap_dropped",
	"accepting_states":           "core.server.accepting_states",
	"pruned_states":              "core.server.pruned_states",
	"bulk_drops":                 "core.server.bulk_drops",
	"bindkey_hits":               "core.server.bindkey_hits",
	"engine_states":              "symexec.states",
	"engine_forks":               "symexec.forks",
	"engine_steps":               "symexec.steps",
	"engine_solver_calls":        "symexec.solver_calls",
}

// countLayers records the summed run counters of one audit's analyses.
func countLayers(tr *auditTrace, runs []campaign.Counters) {
	sums := map[string]float64{}
	for _, c := range runs {
		for k, v := range c {
			sums[k] += float64(v)
		}
	}
	for k, name := range counterMetrics {
		tr.set(name, sums[k])
	}
	tr.set("core.server.trojan_yield", ratio(sums["trojan_classes"], sums["accepting_states"]))
}

// manifestCounters lists the counters of every job of a bundle.
func manifestCounters(m campaign.Manifest) []campaign.Counters {
	out := make([]campaign.Counters, len(m.Runs))
	for i, rm := range m.Runs {
		out[i] = rm.Counters
	}
	return out
}

// solverLayers records solver work per audit: st is the solver's Stats
// delta over the audit, and per is the number of audits it covers.
func solverLayers(set func(string, float64), st solver.Stats, per float64) {
	set("solver.queries", float64(st.Queries)/per)
	set("solver.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.Queries)))
	set("solver.decisions", float64(st.Decisions)/per)
	set("solver.propagations", float64(st.Propagations)/per)
	set("solver.splits", float64(st.Splits)/per)
	set("solver.unknowns", float64(st.Unknowns)/per)
	set("solver.learned_sets", float64(st.LearnedSets)/per)
	set("solver.learned_hit_ratio", ratio(float64(st.LearnedHits), float64(st.LearnedSets)))
	set("solver.feasible_hits", float64(st.FeasibleHits)/per)
	set("solver.interned", float64(st.Interned)/per)
}

// statsDelta is b − a, counter by counter.
func statsDelta(a, b solver.Stats) solver.Stats {
	return solver.Stats{
		Queries:      b.Queries - a.Queries,
		Decisions:    b.Decisions - a.Decisions,
		Propagations: b.Propagations - a.Propagations,
		Splits:       b.Splits - a.Splits,
		Unknowns:     b.Unknowns - a.Unknowns,
		CacheHits:    b.CacheHits - a.CacheHits,
		Interned:     b.Interned - a.Interned,
		LearnedSets:  b.LearnedSets - a.LearnedSets,
		LearnedHits:  b.LearnedHits - a.LearnedHits,
		FeasibleHits: b.FeasibleHits - a.FeasibleHits,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// compileTargets times the lang layer for an audit's targets: building each
// registry target compiles its NL models.
func compileTargets(tr *auditTrace, targets []string) {
	if tr == nil {
		return
	}
	t := time.Now()
	for _, n := range targets {
		if d, ok := registry.Lookup(n); ok {
			d.Target()
		}
	}
	tr.record(0, "lang.compile", t, time.Now())
}

// probeUnit is one analysis the layer probe replays.
type probeUnit struct {
	name   string
	target func() core.Target
	opts   core.AnalysisOptions
}

func registryUnits(names []string) []probeUnit {
	var out []probeUnit
	for _, n := range names {
		d := registry.MustLookup(n)
		out = append(out, probeUnit{name: n, target: d.Target, opts: d.Analysis})
	}
	return out
}

// probe replays a workload's analyses in process once per analysis mode, a
// fresh solver per mode: the §6.4 ablation as a layer view. It also records
// the counters only a full core.RunResult carries, from the optimized pass.
func probe(units []probeUnit, vals map[string]float64) error {
	modes := []struct {
		mode core.Mode
		key  string
	}{
		{core.ModeOptimized, "optimized"},
		{core.ModeNoDifferentFrom, "no-differentfrom"},
		{core.ModeAPosteriori, "a-posteriori"},
	}
	for _, m := range modes {
		sol := solver.Default()
		var server time.Duration
		var ps core.PreprocessStats
		var es symexec.Stats
		for _, u := range units {
			opts := u.opts
			opts.Mode, opts.Parallelism, opts.Solver = m.mode, jobs, sol
			run, err := core.Run(u.target(), opts)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", u.name, m.key, err)
			}
			server += run.ServerTime
			p := run.Clients.PreprocessStats
			ps.DiffFromYes += p.DiffFromYes
			ps.DiffFromNo += p.DiffFromNo
			ps.DiffFromUnk += p.DiffFromUnk
			ps.SolverQueries += p.SolverQueries
			es.Subsumed += run.Analysis.EngineStats.Subsumed
			es.SolverCalls += run.Analysis.EngineStats.SolverCalls
		}
		vals["core.server_ms."+m.key] = durMS(server)
		if m.mode == core.ModeOptimized {
			decided := float64(ps.DiffFromYes + ps.DiffFromNo)
			vals["core.preprocess.difffrom_decided_ratio"] = ratio(decided, decided+float64(ps.DiffFromUnk))
			vals["core.preprocess.solver_queries"] = float64(ps.SolverQueries)
			vals["symexec.subsumed_ratio"] = ratio(float64(es.Subsumed), float64(es.Subsumed+es.SolverCalls))
		}
	}
	return nil
}
