package solver

// Incremental prefix solving. A symbolic-execution path grows one
// constraint at a time, and every feasibility query the engine issues is
// "the whole path so far, plus one candidate condition". Re-solving the
// shared prefix from scratch on each query is where the analysis used to
// spend most of its time; a Prefix is the push/pop-style assumption handle
// that carries the prefix's solved form forward instead:
//
//   - the flattened, interned form of the path (conjunctive atoms and
//     disjunctions), extended incrementally;
//   - the interval-propagation fixpoint of the conjunctive atoms, used to
//     seed later propagation runs. Seeding is exact, not just sound: the
//     per-atom tighteners are monotone narrowing operators, so chaotic
//     iteration started from the prefix fixpoint (a set between the full
//     fixpoint and the top element) converges to the same fixpoint as
//     iteration started from unconstrained domains — the seeded and
//     unseeded solves agree on final domains, hence on verdicts and models.
//     The one caveat is the bounded round count in propagate: a run that
//     hits the round cap can stop above the fixpoint, and the seeded run
//     may then be strictly tighter. The cap exists only as a termination
//     backstop for adversarial narrowing chains. Stats.RoundCaps counts
//     the runs it stops, and TestAuditsNeverHitPropagationRoundCap
//     (internal/campaign) holds that count at 0 on the fleet in all three
//     modes and on the rich FSP corpus;
//   - the interned-ID set of the conjunctive atoms, which gives the engine
//     an O(1) syntactic subsumption check (Implies) for frontier branching.
//
// A Prefix is immutable: Extend returns a new handle and never mutates the
// receiver, so sibling states forked from one parent — possibly on
// different workers — share the parent handle safely.
//
// Soundness of Implies (the engine-side subsumption shortcut): the engine
// only ever appends a constraint to a path after checking that path+cond is
// not Unsat, so the full current path is always a previously verified
// non-Unsat query. For a branch condition cond that is a linear comparison:
//
//   - cond already a conjunctive atom of the path: path+cond is the same
//     atom multiset as path (a duplicate atom changes neither propagation
//     fixpoints, pairwise conflicts, nor search), so the solver's answer is
//     the already-established "not Unsat" — feasible, no solver call
//     needed;
//   - ¬cond already a conjunctive atom: path+cond contains a complement
//     pair of linear comparisons over the same combination, which
//     linearConflict detects before any search — the solver's answer is
//     Unsat with certainty, again without the call.
//
// Both answers equal what CheckCtx would have returned, so the engine's
// branching decisions are unchanged — only the solver calls disappear. The
// check is gated to linearisable comparisons with at least one variable;
// anything else falls through to the solver.

import (
	"context"
	"sort"

	"achilles/internal/expr"
)

// Prefix is an immutable, incrementally extended path-condition prefix.
// The zero value is not valid; obtain one from Solver.NewPrefix.
type Prefix struct {
	s       *Solver
	raw     []*internEntry  // top-level constraints, in append order
	renders []string        // raw entries' renderings, kept sorted for cache keys
	conj    []*internEntry  // flattened conjunctive atoms
	disj    []*internEntry  // flattened disjunctions
	ids     map[uint64]bool // interned IDs of conj, for Implies
	seed    *fixpoint       // propagation fixpoint of conj; nil when absent
	// refuted marks a prefix containing a literal false constraint; the
	// domain seed is absent then and every check answers Unsat, exactly as
	// flattening the full constraint slice would.
	refuted bool
}

// fixpoint is the propagation fixpoint of a prefix's n conjunctive atoms:
// their sorted variable table and one domain per slot, as conjState lays
// them out. Every query built on the prefix starts with those n atoms, so its
// own table is this one plus the names its extra atoms add.
type fixpoint struct {
	vars []string
	dom  []interval
	n    int
}

// NewPrefix returns the empty path prefix.
func (s *Solver) NewPrefix() *Prefix {
	return &Prefix{s: s, ids: map[uint64]bool{}}
}

// Extend returns the prefix with cond appended, carrying the propagation
// fixpoint forward. The receiver is unchanged.
func (p *Prefix) Extend(cond *expr.Expr) *Prefix {
	if p == nil {
		return nil
	}
	s := p.s
	en := s.arena.intern(cond)
	np := &Prefix{
		s:       s,
		raw:     append(append(make([]*internEntry, 0, len(p.raw)+1), p.raw...), en),
		renders: insertSorted(p.renders, en.render),
		conj:    append(make([]*internEntry, 0, len(p.conj)+1), p.conj...),
		disj:    append([]*internEntry{}, p.disj...),
		refuted: p.refuted,
	}
	if !np.refuted && !s.flattenInto(cond, &np.conj, &np.disj) {
		np.refuted = true
	}
	np.ids = make(map[uint64]bool, len(np.conj))
	for _, en := range np.conj {
		np.ids[en.id] = true
	}
	if !np.refuted {
		// Re-propagate from the parent fixpoint: typically one confirming
		// round plus whatever the new atoms narrow. A refuted or conflicted
		// conjunction leaves the seed absent — the per-query solve will
		// rediscover the refutation through the learned index at its usual
		// (budget-free) cost.
		cs := s.newConjState(np.conj, p.seed)
		if !linearConflict(cs.atoms) && s.propagate(&cs) {
			// cs is discarded, so its dense domains become the stored
			// fixpoint as they are.
			np.seed = &fixpoint{vars: cs.vars, dom: cs.dom, n: len(np.conj)}
		}
	}
	return np
}

// insertSorted returns a fresh slice with s inserted into sorted at its
// sorted position. The input is never mutated (prefixes are immutable).
func insertSorted(sorted []string, s string) []string {
	idx := sort.SearchStrings(sorted, s)
	out := make([]string, 0, len(sorted)+1)
	out = append(out, sorted[:idx]...)
	out = append(out, s)
	return append(out, sorted[idx:]...)
}

// Len reports the number of constraints in the prefix.
func (p *Prefix) Len() int {
	if p == nil {
		return 0
	}
	return len(p.raw)
}

// Implies reports whether the prefix syntactically decides cond: (true, ok)
// when cond is one of the prefix's conjunctive atoms, (false, ok) when its
// complement is. ok is false when the prefix does not decide cond — callers
// must then ask the solver. See the package comment for why the two decided
// answers coincide with the solver's.
func (p *Prefix) Implies(cond *expr.Expr) (holds, ok bool) {
	if p == nil || p.refuted || len(p.ids) == 0 {
		return false, false
	}
	en := p.s.arena.intern(cond)
	if en.la == nil || len(en.la.vars) == 0 {
		return false, false
	}
	if p.ids[en.id] {
		return true, true
	}
	nen := p.s.arena.negation(en)
	if nen.la == nil || len(nen.la.vars) == 0 {
		return false, false
	}
	if p.ids[nen.id] {
		return false, true
	}
	return false, false
}

// CheckPrefixAllCtx decides the conjunction of the prefix's constraints and
// every expression in conds. It is equivalent to CheckCtx over the
// materialised slice — same verdicts, models, cache keys and entries — but
// reuses the prefix's flattened form and propagation fixpoint. The analysis
// layer uses it for its path-plus-suffix queries (client-path binds, Trojan
// negation sets) where the suffix has more than one conjunct.
func (s *Solver) CheckPrefixAllCtx(ctx context.Context, p *Prefix, conds []*expr.Expr) (Result, expr.Env) {
	if p == nil {
		return s.CheckCtx(ctx, conds)
	}
	ens := s.internAll(conds)
	keyFn := func() string {
		extras := make([]string, len(ens))
		for i, en := range ens {
			extras[i] = en.render
		}
		sort.Strings(extras)
		return queryKeySortedMerge(p.renders, extras)
	}
	constraintsFn := func() []*expr.Expr {
		exprs := make([]*expr.Expr, 0, len(p.raw)+len(ens))
		for _, pe := range p.raw {
			exprs = append(exprs, pe.e)
		}
		for _, en := range ens {
			exprs = append(exprs, en.e)
		}
		return exprs
	}
	return s.checkCached(ctx, keyFn, constraintsFn, func(ctx context.Context) (Result, expr.Env) {
		fq := flatQuery{
			conj:    append(make([]*internEntry, 0, len(p.conj)+len(ens)), p.conj...),
			disj:    append([]*internEntry{}, p.disj...),
			refuted: p.refuted,
		}
		for _, en := range ens {
			if fq.refuted {
				break
			}
			if !s.flattenInto(en.e, &fq.conj, &fq.disj) {
				fq.refuted = true
			}
		}
		return s.check(ctx, fq, p.seed)
	})
}

// CheckPrefix decides prefix ∧ cond; see CheckPrefixCtx.
func (s *Solver) CheckPrefix(p *Prefix, cond *expr.Expr) (Result, expr.Env) {
	return s.CheckPrefixCtx(context.Background(), p, cond)
}

// CheckPrefixCtx decides the conjunction of the prefix's constraints and
// cond. It is equivalent to CheckCtx over the materialised constraint slice
// — same verdicts, same models, same cache keys and entries, same
// re-verification of loaded entries — but reuses the prefix's flattened form
// and propagation fixpoint instead of rebuilding them per query.
func (s *Solver) CheckPrefixCtx(ctx context.Context, p *Prefix, cond *expr.Expr) (Result, expr.Env) {
	if p == nil {
		return s.CheckCtx(ctx, []*expr.Expr{cond})
	}
	en := s.arena.intern(cond)
	keyFn := func() string { return queryKeySortedPlus(p.renders, en.render) }
	constraintsFn := func() []*expr.Expr {
		exprs := make([]*expr.Expr, 0, len(p.raw)+1)
		for _, pe := range p.raw {
			exprs = append(exprs, pe.e)
		}
		return append(exprs, en.e)
	}
	return s.checkCached(ctx, keyFn, constraintsFn, func(ctx context.Context) (Result, expr.Env) {
		conj := make([]*internEntry, len(p.conj), len(p.conj)+1)
		copy(conj, p.conj)
		fq := flatQuery{
			conj:    conj,
			disj:    append([]*internEntry{}, p.disj...),
			refuted: p.refuted,
		}
		if !fq.refuted && !s.flattenInto(cond, &fq.conj, &fq.disj) {
			fq.refuted = true
		}
		return s.check(ctx, fq, p.seed)
	})
}
