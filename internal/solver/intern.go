package solver

// Expression interning. Every expression the solver touches is resolved to
// a per-solver internEntry exactly once; the entry caches the derived forms
// the hot path used to recompute per query:
//
//   - the linearisation (linAtom or "outside the fragment");
//   - filled on first use: the entry of the expression's negation
//     (Prefix.Implies) and, for a disjunction, its split parts, the
//     flattened and interned top-level disjuncts the DPLL split tree
//     appends to its stacks (splitOf, part), so no split re-walks an Or
//     tree or re-interns its atoms.
//
// The sorted variable list, the unit of conjState's variable table, is the
// node's own (expr.Vars). Entries also carry a stable per-solver ID, the
// unit of every query key: the verdict cache keys a query by the multiset
// of its constraints' IDs and the split-gate feasible memo a conjunction by
// the set of its atoms' IDs. IDs order by first-intern time, which is
// scheduling-dependent under concurrent analysis workers, so both keys are
// built from sorted IDs and never leave the solver. Prefix subsumption
// compares the entries themselves.
//
// The table is keyed by node: expr makes one node per structure, so equal
// trees map to one entry and an entry never aliases two expressions. An
// entry holds its node, so a solver keeps alive the nodes it interned, and
// only those; its scopes (Solver.Scoped) share its table.

import (
	"sync"
	"sync/atomic"

	"achilles/internal/expr"
)

// internEntry is the canonical per-solver record of one expression.
// Immutable after construction, except that neg and split are filled in on
// first use.
type internEntry struct {
	id    uint64
	e     *expr.Expr
	la    *linAtom                    // linearisation; nil when e is outside the linear fragment
	neg   atomic.Pointer[internEntry] // entry of expr.Not(e); see negation
	split atomic.Pointer[splitList]   // a disjunction's split parts; see splitOf
}

// splitList is the split view of a disjunction: its top-level disjuncts in
// Or-tree order and, filled on each one's first visit, its flattened and
// interned form. A part is interned when a split first reaches it, so the
// table holds exactly the entries, under the same IDs, that flattening the
// part at each split would create.
type splitList struct {
	es    []*expr.Expr
	parts []atomic.Pointer[splitPart]
}

// splitPart is one flattened disjunct: the conjunctive atoms and
// disjunctions a split on it adds. ok is false when the disjunct contains a
// literal false, and the split skips it.
type splitPart struct {
	conj, disj []*internEntry
	ok         bool
}

// internTable maps nodes to their entries for one Solver and its scopes.
// Safe for concurrent use: a lookup is a lock-free sync.Map load, and
// creation runs under one mutex.
type internTable struct {
	entries sync.Map // *expr.Expr -> *internEntry
	mu      sync.Mutex
	nextID  uint64
	// ckeyIDs numbers distinct linear-combination fingerprints from 1 so
	// linearConflict can compare combinations by integer (see linAtom.ckeyID).
	ckeyIDs map[string]uint32
}

// intern resolves e to its entry, creating it on first sight.
func (t *internTable) intern(e *expr.Expr) *internEntry {
	if en, ok := t.entries.Load(e); ok {
		return en.(*internEntry)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if en, ok := t.entries.Load(e); ok {
		return en.(*internEntry)
	}
	en := &internEntry{id: t.nextID, e: e}
	t.nextID++
	en.la, _ = linearise(e)
	if en.la != nil && en.la.ckey != "" {
		id, ok := t.ckeyIDs[en.la.ckey]
		if !ok {
			id = uint32(len(t.ckeyIDs) + 1)
			t.ckeyIDs[en.la.ckey] = id
		}
		en.la.ckeyID = id
	}
	t.entries.Store(e, en)
	return en
}

// negation returns the entry of expr.Not(en.e). Prefix.Implies asks for the
// complements of the same atoms over and over, so each entry builds and
// interns its complement once and keeps it.
func (t *internTable) negation(en *internEntry) *internEntry {
	if n := en.neg.Load(); n != nil {
		return n
	}
	n := t.intern(expr.Not(en.e))
	en.neg.Store(n)
	return n
}

// splitOf returns the split view of the disjunction en. The DPLL split
// tree splits the same disjunctions over and over, in sibling branches and
// in query after query, so each entry walks its Or tree once and keeps the
// disjuncts, and each part is flattened and interned once (part). Goroutines
// racing on a first call agree on the list that CompareAndSwap stored.
func (s *Solver) splitOf(en *internEntry) *splitList {
	if l := en.split.Load(); l != nil {
		return l
	}
	l := &splitList{}
	disjuncts(en.e, &l.es)
	l.parts = make([]atomic.Pointer[splitPart], len(l.es))
	if !en.split.CompareAndSwap(nil, l) {
		l = en.split.Load()
	}
	return l
}

// part returns the i-th part of l, flattening and interning it on first
// use. Racing first uses compute equal parts, and either store wins.
func (s *Solver) part(l *splitList, i int) *splitPart {
	if p := l.parts[i].Load(); p != nil {
		return p
	}
	p := &splitPart{}
	if p.ok = s.flattenInto(l.es[i], &p.conj, &p.disj); !p.ok {
		p.conj, p.disj = nil, nil
	}
	l.parts[i].Store(p)
	return p
}

// size reports the number of distinct interned expressions.
func (t *internTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.nextID)
}

// appendInterned appends the entries of constraints, in order, to dst.
func (s *Solver) appendInterned(dst []*internEntry, constraints []*expr.Expr) []*internEntry {
	for _, c := range constraints {
		dst = append(dst, s.table.intern(c))
	}
	return dst
}
