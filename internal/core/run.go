package core

import (
	"context"
	"time"

	"achilles/internal/lang"
	"achilles/internal/solver"
	"achilles/internal/symexec"
)

// Target bundles everything Achilles needs to analyse one system: the
// server model, the client models, and the message layout.
type Target struct {
	Name       string
	Server     *lang.Unit
	Clients    []ClientProgram
	FieldNames []string
	// Mask lists message field indices hidden from the analysis (§5.2).
	Mask []int
	// SharedState lists extra variable names shared between the client and
	// server runs (§3.4); "state_*" variables are always shared.
	SharedState []string
	// ServerExec / ClientExec configure the respective engine runs
	// (local-state modes, budgets...).
	ServerExec symexec.Options
	ClientExec symexec.Options
}

// RunResult is the outcome of a full two-phase Achilles run, with the phase
// timing split reported in §6.2 of the paper.
type RunResult struct {
	Clients  *ClientPredicate
	Analysis *Result

	ClientExtractTime time.Duration // phase 1: gathering PC
	PreprocessTime    time.Duration // predicate preprocessing (§3.3)
	ServerTime        time.Duration // phase 2: server analysis + Trojan search
}

// Total returns the end-to-end duration.
func (r *RunResult) Total() time.Duration {
	return r.ClientExtractTime + r.PreprocessTime + r.ServerTime
}

// Truncated reports whether either phase hit a MaxStates budget: a truncated
// server exploration yields a partial Trojan class set, and a truncated
// client extraction yields an under-approximated client predicate. Either
// way the run's class set must not be pinned as the complete corpus.
func (r *RunResult) Truncated() bool {
	return r.Clients.Truncated || r.Analysis.Truncated()
}

// Run executes both Achilles phases on a target. opts.Parallelism drives
// every phase: concurrent client extraction, parallel predicate
// preprocessing, and the worker-pool server exploration.
func Run(t Target, opts AnalysisOptions) (*RunResult, error) {
	return RunCtx(context.Background(), t, opts)
}

// RunCtx is Run under a context; cancellation (or a deadline) aborts
// whichever phase is in flight. The error contract follows the phase the
// cancellation struck:
//
//   - during client extraction or preprocessing there is no usable result
//     yet — RunCtx returns (nil, ctx.Err());
//   - during the server phase the partial analysis is real — RunCtx returns
//     the RunResult (Truncated() reports true) together with ctx.Err(), so
//     callers can both show what was found and know the run was cut short.
//
// An opts.FirstTrojan early exit is not a cancellation: the result is
// Truncated but err is nil.
//
// Every phase runs on one scope of opts.Solver (solver.Solver.Scoped): the
// scope shares the solver's verdict cache and intern table, so runs on one
// solver still answer each other's queries, and the scope's counters are
// the run's own solver work (Result.SolverStats).
func RunCtx(ctx context.Context, t Target, opts AnalysisOptions) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Solver == nil {
		opts.Solver = solver.Default()
	}
	opts.Solver = opts.Solver.Scoped()
	out := &RunResult{}

	opts.Observer.phase(PhaseExtract)
	t0 := time.Now()
	pc, err := ExtractClientPredicateCtx(ctx, t.Clients, ExtractOptions{
		Exec:           t.ClientExec,
		FieldNames:     t.FieldNames,
		Mask:           t.Mask,
		SharedState:    t.SharedState,
		Solver:         opts.Solver,
		SkipPreprocess: true,
		Parallelism:    opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	out.ClientExtractTime = time.Since(t0)

	opts.Observer.phase(PhasePreprocess)
	t1 := time.Now()
	pc.PreprocessParallelCtx(ctx, opts.Solver, opts.Parallelism)
	out.PreprocessTime = time.Since(t1)
	out.Clients = pc
	if err := ctx.Err(); err != nil {
		// A half-preprocessed predicate silently suppresses Trojans (missing
		// negation disjuncts read as "abandoned"); never analyse with one.
		return nil, err
	}

	opts.Observer.phase(PhaseServer)
	t2 := time.Now()
	opts.Exec = t.ServerExec
	res, err := analyzeServerCtx(ctx, t.Server, pc, opts)
	if res == nil {
		return nil, err
	}
	out.ServerTime = time.Since(t2)
	out.Analysis = res
	return out, err
}
