package solver

// Pinned naive-DPLL reference for the differential suite.
//
// Reference re-implements the solver's decision procedure with NO cross-query
// state: no verdict cache, no interning arena, no propOK memo, no prefix
// handles. Per-query behaviour — flattening, split
// order, the budget-free refutation layer (pairwise linear conflicts +
// interval propagation) at split nodes and leaves, budget accounting,
// variable ordering, enumeration order and final model verification — mirrors
// the fast solver exactly. The two must therefore agree on verdicts AND on
// returned models for every query; differential_test.go holds them to that
// over tens of thousands of random formulas and a native fuzz target.
//
// The interval arithmetic (propagate, propagateAtom, search, finish) is
// shared with the fast path deliberately: the differential target is the
// fast-path machinery layered on top of it — interning, split-gate
// memoisation, cache keys, prefix handles — not the arithmetic.
// A change to the shared kernel moves both sides at once, so this suite
// cannot see it; TestKernelFingerprint (kernel_test.go) pins the kernel's
// verdicts, models and work counters instead.
//
// This file is frozen on purpose. Performance work belongs in the fast path;
// "improving" the reference in lockstep with the solver would erase the
// differential signal.

import (
	"context"

	"achilles/internal/expr"
)

// Reference is the pinned naive-DPLL checker. Unlike Solver it keeps no
// state between queries (the embedded carrier only supplies budgets and
// stat counters), so every Check solves from scratch.
type Reference struct {
	s *Solver // carrier for opts; propagate/search/finish are its methods
}

// NewReference returns a reference checker with the given budgets. The
// cache-related options are ignored — the reference never memoises.
func NewReference(opts Options) *Reference {
	opts.DisableCache = true
	return &Reference{s: New(opts)}
}

// Check decides the conjunction of the constraints, exactly as
// Solver.Check would, but from scratch.
func (r *Reference) Check(constraints []*expr.Expr) (Result, expr.Env) {
	var conj, disj []*expr.Expr
	for _, c := range constraints {
		if !refFlatten(c, &conj, &disj) {
			return Unsat, nil
		}
	}
	budget := r.s.opts.MaxDecisions
	return r.solve(conj, disj, &budget)
}

// refFlatten splits e into conjunctive atoms and disjunctions, mirroring
// Solver.flattenInto without the arena. False means a literal false.
func refFlatten(e *expr.Expr, conj, disj *[]*expr.Expr) bool {
	switch e.Kind {
	case expr.KBool:
		return e.Val != 0
	case expr.KAnd:
		return refFlatten(e.Args[0], conj, disj) && refFlatten(e.Args[1], conj, disj)
	case expr.KOr:
		*disj = append(*disj, e)
		return true
	default:
		*conj = append(*conj, e)
		return true
	}
}

// refConjState builds the conjunction search state from raw expressions:
// fresh linearisations, a fresh variable table — nothing interned, no seed.
func refConjState(conj []*expr.Expr) *conjState {
	cs := &conjState{
		orig: conj,
		vars: expr.VarsOf(conj),
	}
	for _, e := range conj {
		if la, ok := linearise(e); ok {
			cs.atoms = append(cs.atoms, la)
		} else {
			cs.nonlin = append(cs.nonlin, e)
			cs.nonlinVars = append(cs.nonlinVars, expr.Vars(e))
		}
	}
	return cs
}

// solve mirrors Solver.solve: split-node pruning by budget-free refutation,
// then DPLL splitting over the first disjunction.
func (r *Reference) solve(conj, disj []*expr.Expr, budget *int) (Result, expr.Env) {
	if len(disj) == 0 {
		return r.solveConj(conj, budget)
	}
	if cs := refConjState(conj); linearConflict(cs.atoms) || !r.s.propagate(cs) {
		return Unsat, nil
	}
	d := disj[0]
	rest := disj[1:]
	var parts []*expr.Expr
	disjuncts(d, &parts)
	sawUnknown := false
	for _, p := range parts {
		if *budget <= 0 {
			return Unknown, nil
		}
		subConj := append([]*expr.Expr{}, conj...)
		subDisj := append([]*expr.Expr{}, rest...)
		if !refFlatten(p, &subConj, &subDisj) {
			continue
		}
		res, model := r.solve(subConj, subDisj, budget)
		switch res {
		case Sat:
			return Sat, model
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	return Unsat, nil
}

// solveConj mirrors Solver.solveConj: refutation layer first (budget-free),
// then the shared search.
func (r *Reference) solveConj(conj []*expr.Expr, budget *int) (Result, expr.Env) {
	cs := refConjState(conj)
	if linearConflict(cs.atoms) || !r.s.propagate(cs) {
		return Unsat, nil
	}
	return r.s.search(context.Background(), cs, budget)
}
