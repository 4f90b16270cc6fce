package solver

// Incremental path prefixes. A symbolic-execution path grows one constraint
// at a time, and every feasibility query the engine issues is "the whole
// path so far, plus one candidate condition". A Prefix is the push/pop-style
// assumption handle that carries the path's query form forward instead of
// rebuilding it per query:
//
//   - the intern-entry IDs of the top-level constraints, kept sorted, so a
//     query's cache key is one linear merge with its extra conditions' IDs;
//   - the flattened form of the path (conjunctive atoms and disjunctions),
//     extended incrementally, so a query only flattens its extra conditions.
//     The conjunctive atoms also give the engine a syntactic subsumption
//     check (Implies) for frontier branching: intern entries are canonical,
//     so a condition already on the path is found by pointer in the atoms.
//
// Extend does no solving, and every query propagates from full domains
// (Solver.CheckPrefixCtx): path models answer most branch queries without
// the solver, so a propagation fixpoint carried per extension would be
// computed for few readers (DESIGN.md, "The solver fast path").
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
	"slices"

	"achilles/internal/expr"
)

// Prefix is an immutable, incrementally extended path-condition prefix.
// Obtain one from Solver.NewPrefix; a nil *Prefix is the empty path to
// CheckPrefixCtx.
type Prefix struct {
	s    *Solver
	ids  []uint64       // top-level constraints' entry IDs, sorted, duplicates kept
	conj []*internEntry // flattened conjunctive atoms
	disj []*internEntry // flattened disjunctions
	// refuted marks a prefix containing a literal false constraint: every
	// check answers Unsat, exactly as flattening the full constraint slice
	// would.
	refuted bool
}

// emptyPrefix is the empty path CheckPrefixCtx stands in for a nil prefix.
// Only its (nil) query fields are ever read.
var emptyPrefix = &Prefix{}

// NewPrefix returns the empty path prefix.
func (s *Solver) NewPrefix() *Prefix {
	return &Prefix{s: s}
}

// Extend returns the prefix with cond appended. The receiver is unchanged.
func (p *Prefix) Extend(cond *expr.Expr) *Prefix {
	if p == nil {
		return nil
	}
	s := p.s
	en := s.table.intern(cond)
	np := &Prefix{
		s:       s,
		ids:     insertSorted(p.ids, en.id),
		conj:    append(make([]*internEntry, 0, len(p.conj)+1), p.conj...),
		disj:    append([]*internEntry{}, p.disj...),
		refuted: p.refuted,
	}
	if !np.refuted && !s.appendFlat(en, &np.conj, &np.disj) {
		np.refuted = true
	}
	return np
}

// insertSorted returns a fresh slice with id inserted into sorted at its
// sorted position. The input is never mutated (prefixes are immutable).
func insertSorted(sorted []uint64, id uint64) []uint64 {
	idx, _ := slices.BinarySearch(sorted, id)
	out := make([]uint64, 0, len(sorted)+1)
	out = append(out, sorted[:idx]...)
	out = append(out, id)
	return append(out, sorted[idx:]...)
}

// Implies reports whether the prefix syntactically decides cond: (true, ok)
// when cond is one of the prefix's conjunctive atoms, (false, ok) when its
// complement is. ok is false when the prefix does not decide cond — callers
// must then ask the solver. See the package comment for why the two decided
// answers coincide with the solver's.
func (p *Prefix) Implies(cond *expr.Expr) (holds, ok bool) {
	if p == nil || p.refuted || len(p.conj) == 0 {
		return false, false
	}
	en := p.s.table.intern(cond)
	if en.la == nil || len(en.la.vars) == 0 {
		return false, false
	}
	if slices.Contains(p.conj, en) {
		return true, true
	}
	nen := p.s.table.negation(en)
	if nen.la == nil || len(nen.la.vars) == 0 {
		return false, false
	}
	if slices.Contains(p.conj, nen) {
		return false, true
	}
	return false, false
}

// appendKey appends the verdict-cache key of the prefix extended by ens to
// buf (see verdictCache).
func (p *Prefix) appendKey(buf []byte, ens []*internEntry) []byte {
	var small [64]uint64
	ids := small[:0]
	for _, en := range ens {
		ids = append(ids, en.id)
	}
	slices.Sort(ids)
	return appendIDKey(buf, p.ids, ids)
}
