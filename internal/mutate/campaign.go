package mutate

import (
	"context"
	"fmt"
	"sort"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/lang"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
)

// DefaultTargets are the base registry targets a mutation campaign audits
// when none are named: the three seeded-vulnerability workloads spanning
// the catalog's protocol families.
var DefaultTargets = []string{"fsp", "kv", "raft"}

// Budget clamps applied to every mutant job's server exploration. A
// mutation can manufacture an unbounded loop or a state-space blow-up the
// original model never had; the clamps turn those into truncated or failed
// paths instead of a hung campaign. Values are far above what the unmutated
// seed targets need, so a clamp firing is itself evidence the mutant
// changed behaviour.
const (
	DefaultMaxStates = 1 << 15
	DefaultMaxSteps  = 1 << 13
)

// CampaignOptions configure one mutation-recall campaign.
type CampaignOptions struct {
	// Targets are base registry names (default DefaultTargets). Every
	// target must be registered.
	Targets []string
	// Mode is the analysis mode for every job (default ModeOptimized).
	Mode core.Mode
	// Jobs is the global parallelism budget across the whole campaign.
	Jobs int
	// MaxPerTarget caps generated mutants per target (0 = every site).
	MaxPerTarget int
	// Operators restricts the mutation catalog (nil = all).
	Operators []string
	// Baseline enables incremental reuse: campaign jobs (base and mutant
	// alike) whose input fingerprint matches a clean baseline entry are
	// reused verbatim. BaselineDir is recorded for provenance.
	Baseline    *campaign.Bundle
	BaselineDir string
	// MaxStates / MaxSteps override the mutant exploration clamps
	// (defaults DefaultMaxStates / DefaultMaxSteps).
	MaxStates int
	MaxSteps  int
	// Solver is the shared solver for every job; nil creates a default one
	// (see campaign.Options.Solver).
	Solver *solver.Solver
}

// Result is the outcome of one mutation-recall campaign: the audit bundle
// (base + mutant jobs, writable/diffable like any campaign bundle) and the
// classified recall report.
type Result struct {
	Bundle *campaign.Bundle
	Report *RecallReport
	// GenStats maps base target name to its mutant-generation statistics.
	GenStats map[string]Stats
}

// Run executes the mutation campaign; see RunCtx.
func Run(opts CampaignOptions) (*Result, error) {
	return RunCtx(context.Background(), opts)
}

// RunCtx generates mutants for every base target, runs base and mutant
// targets as ONE incremental campaign under a shared solver and the global
// Jobs budget, and classifies every mutant against its base job's class
// set. Cancellation aborts the underlying campaign; the error is returned
// after the partial bundle, mirroring campaign.RunCtx.
func RunCtx(ctx context.Context, opts CampaignOptions) (*Result, error) {
	bases := opts.Targets
	if len(bases) == 0 {
		bases = DefaultTargets
	}
	mode := opts.Mode
	maxStates, maxSteps := opts.MaxStates, opts.MaxSteps
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	type targetPlan struct {
		desc    registry.Descriptor
		mutants []Mutant
	}
	plans := make([]targetPlan, 0, len(bases))
	genStats := map[string]Stats{}
	var extra []registry.Descriptor
	names := make([]string, 0, len(bases))
	seen := map[string]bool{}
	for _, name := range bases {
		d, ok := registry.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("mutate: unknown target %q (registered: %v)", name, registry.Names())
		}
		if seen[d.Name] {
			continue
		}
		seen[d.Name] = true
		muts, stats, err := Generate(d.Target().Server, Options{
			Operators: opts.Operators,
			Max:       opts.MaxPerTarget,
		})
		if err != nil {
			return nil, fmt.Errorf("mutate: %s: %w", d.Name, err)
		}
		genStats[d.Name] = stats
		plans = append(plans, targetPlan{desc: d, mutants: muts})
		names = append(names, d.Name)
		for _, m := range muts {
			md, err := mutantDescriptor(d, m, maxStates, maxSteps)
			if err != nil {
				return nil, fmt.Errorf("mutate: %s: %w", mutantName(d.Name, m), err)
			}
			extra = append(extra, md)
			names = append(names, md.Name)
		}
	}

	bundle, err := campaign.RunCtx(ctx, campaign.Options{
		Targets:     names,
		Modes:       []core.Mode{mode},
		Jobs:        opts.Jobs,
		Baseline:    opts.Baseline,
		BaselineDir: opts.BaselineDir,
		Solver:      opts.Solver,
		Extra:       extra,
	})
	if bundle == nil {
		return nil, err
	}

	rep := &RecallReport{
		Version:    Version,
		Mode:       mode.String(),
		Jobs:       bundle.Manifest.Jobs,
		CachedJobs: bundle.Manifest.CachedJobs,
		WallMS:     bundle.Manifest.WallMS,
	}
	entries := map[string]campaign.RunManifest{}
	for _, rm := range bundle.Manifest.Runs {
		entries[rm.Key()] = rm
	}
	for _, p := range plans {
		baseKey := p.desc.Name + "/" + mode.String()
		baseReports := bundle.Reports[baseKey]
		tr := TargetReport{
			Target:          p.desc.Name,
			BaselineClasses: len(baseReports),
			SeededTrojans:   p.desc.ExpectTrojans,
		}
		tr.Precision = triageBaseline(p.desc, baseReports)
		tr.SeededDetected = len(baseReports) > 0 &&
			(tr.Precision == nil || tr.Precision.Valid > 0)
		for _, m := range p.mutants {
			key := mutantName(p.desc.Name, m) + "/" + mode.String()
			tr.Mutants = append(tr.Mutants, classify(m, entries[key], baseReports, bundle.Reports[key]))
		}
		rep.Targets = append(rep.Targets, tr)
	}
	sort.Slice(rep.Targets, func(i, j int) bool { return rep.Targets[i].Target < rep.Targets[j].Target })
	rep.finish()
	return &Result{Bundle: bundle, Report: rep, GenStats: genStats}, err
}

// mutantName is the campaign-local target name of one mutant: base name
// plus mutant ID, stable across runs of an unchanged base model.
func mutantName(base string, m Mutant) string { return base + "+" + m.ID }

// mutantDescriptor derives the campaign-local descriptor analysing the
// mutated server in place of the original, with the exploration budget
// clamped (a mutation can unbound a loop the original model kept finite).
// The mutant compiles once, here, with lang.Compile: MustCompile's memo
// would keep every generated mutant for the life of the process. Every
// Target() call shares the unit, which analyses only read.
func mutantDescriptor(d registry.Descriptor, m Mutant, maxStates, maxSteps int) (registry.Descriptor, error) {
	name := mutantName(d.Name, m)
	summary := fmt.Sprintf("mutant of %s: %s at %s (%s)", d.Name, m.Site, m.Pos, m.Operator)
	server, err := lang.Compile(m.Source)
	if err != nil {
		return registry.Descriptor{}, err
	}
	return d.Derive(name, summary, func(t core.Target) core.Target {
		t.Server = server
		if t.ServerExec.MaxStates == 0 || t.ServerExec.MaxStates > maxStates {
			t.ServerExec.MaxStates = maxStates
		}
		if t.ServerExec.MaxSteps == 0 || t.ServerExec.MaxSteps > maxSteps {
			t.ServerExec.MaxSteps = maxSteps
		}
		return t
	}), nil
}

// classify turns one mutant's campaign job into its triage record.
func classify(m Mutant, rm campaign.RunManifest, base, mut []campaign.Report) MutantOutcome {
	out := MutantOutcome{
		ID:        m.ID,
		Operator:  m.Operator,
		Site:      m.Site,
		Truncated: rm.Truncated,
		WallMS:    rm.WallMS,
	}
	if rm.Error != "" {
		out.Outcome = Failed
		out.Error = rm.Error
		return out
	}
	jd := campaign.DiffReports(rm.Key(), base, mut)
	out.Appeared = len(jd.Appeared)
	out.Disappeared = len(jd.Disappeared)
	out.Changed = len(jd.Changed)
	switch {
	case out.Appeared > 0:
		out.Outcome = Detected
	case jd.Empty():
		out.Outcome = Equivalent
	default:
		out.Outcome = Escaped
	}
	return out
}

// triageBaseline validates every baseline finding against the descriptor's
// ground-truth oracle (nil when the target has none): the precision side of
// the standing experiment. State worlds recorded in the report take
// precedence over the descriptor default, so local-state findings are
// judged in the world they were found in.
func triageBaseline(d registry.Descriptor, reports []campaign.Report) *PrecisionReport {
	if d.IsTrojan == nil {
		return nil
	}
	pr := &PrecisionReport{Reported: len(reports)}
	for _, r := range reports {
		var st registry.State
		if len(r.State) > 0 {
			st = registry.State(r.State)
		}
		if d.Trojan(r.Concrete, st) {
			pr.Valid++
		} else {
			pr.Invalid++
			pr.InvalidClasses = append(pr.InvalidClasses, r.Class)
		}
	}
	if pr.Reported > 0 {
		pr.Score = float64(pr.Valid) / float64(pr.Reported)
	} else {
		pr.Score = 1
	}
	return pr
}
