package solver

// Hash-consed expression interning. Every expression the solver touches is
// resolved to a per-solver internEntry exactly once; the entry caches the
// derived forms the hot path used to recompute per query:
//
//   - the linearisation (linAtom or "outside the fragment");
//   - the sorted variable list (the unit of conjState's variable table,
//     which a query merges from its entries' lists);
//   - filled on first use: the entry of the expression's negation
//     (Prefix.Implies) and, for a disjunction, its split parts, the
//     flattened and interned top-level disjuncts the DPLL split tree
//     appends to its stacks (splitOf, part), so no split re-walks an Or
//     tree or re-interns its atoms.
//
// Entries also carry a stable per-solver ID, the unit of every query key:
// the verdict cache keys a query by the multiset of its constraints' IDs and
// the split-gate feasible memo a conjunction by the set of its atoms' IDs.
// IDs order by first-intern time, which is scheduling-dependent under
// concurrent analysis workers, so both keys are built from sorted IDs and
// never leave the solver. Prefix subsumption compares the entries
// themselves.
//
// Unification is structural: hash buckets resolved with expr.Equal are the
// only source of truth, so two structurally equal trees always map to one
// entry and an entry can never alias two distinct expressions. In front of
// them sits a pointer memo (path-constraint slices share expression pointers
// across sibling states, so it hits almost always). The memo keeps every
// pointer it holds alive, and every job on a long-lived solver (a daemon's,
// a campaign's) builds fresh trees, so the memo is cleared once it has taken
// memoCap new entries. A reset costs time only: a cleared pointer re-resolves
// through the hash buckets to the same entry — same ID, linearisation and
// ckeyID — so no verdict, model, cache key or feasible-memo key can change.
// A scoped solver (Solver.Scoped) resolves through the same buckets with a
// memo of its own, which goes when the scoped solver does.

import (
	"sync"
	"sync/atomic"

	"achilles/internal/expr"
)

// memoCap bounds the pointer memo. A whole audit on a fresh solver (the fleet
// campaign, the rich FSP corpus) stores about 9k entries, so only solvers
// that outlive an audit ever reset it.
const memoCap = 1 << 14

// internEntry is the canonical per-solver record of one structurally
// distinct expression. Immutable after construction, except that neg and
// split are filled in on first use.
type internEntry struct {
	id    uint64
	e     *expr.Expr
	la    *linAtom                    // linearisation; nil when e is outside the linear fragment
	vars  []string                    // sorted variable names of e
	neg   atomic.Pointer[internEntry] // entry of expr.Not(e); see negation
	split atomic.Pointer[splitList]   // a disjunction's split parts; see splitOf
}

// splitList is the split view of a disjunction: its top-level disjuncts in
// Or-tree order and, filled on each one's first visit, its flattened and
// interned form. A part is interned when a split first reaches it, so the
// arena holds exactly the entries, under the same IDs, that flattening the
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

// internArena unifies expressions for one Solver. Safe for concurrent use:
// the pointer memo is a sync.Map (lock-free hits), creation and structural
// unification run under one mutex.
type internArena struct {
	byPtr   sync.Map     // *expr.Expr -> *internEntry, bounded by memoCap
	memoLen atomic.Int64 // entries stored in byPtr since its last reset
	*internTable
}

// internTable is the structural side of an arena: hash buckets, entry IDs
// and ckeyIDs. A scoped arena (Solver.Scoped) shares its parent's table and
// keeps a pointer memo of its own, so both resolve every tree to the same
// entries.
type internTable struct {
	resets atomic.Int64 // memo resets of every arena on the table, reported as Stats.MemoResets
	mu     sync.Mutex
	byHash map[uint64][]*internEntry
	nextID uint64
	// ckeyIDs numbers distinct linear-combination fingerprints from 1 so
	// linearConflict can compare combinations by integer (see linAtom.ckeyID).
	ckeyIDs map[string]uint32
}

func newInternArena() *internArena {
	return &internArena{internTable: &internTable{
		byHash:  make(map[uint64][]*internEntry),
		ckeyIDs: make(map[string]uint32),
	}}
}

// scoped returns an arena on a's table with an empty pointer memo.
func (a *internArena) scoped() *internArena {
	return &internArena{internTable: a.internTable}
}

// intern resolves e to its canonical entry, creating it on first sight.
func (a *internArena) intern(e *expr.Expr) *internEntry {
	if en, ok := a.byPtr.Load(e); ok {
		return en.(*internEntry)
	}
	a.mu.Lock()
	h := e.Hash()
	for _, en := range a.byHash[h] {
		if expr.Equal(en.e, e) {
			a.mu.Unlock()
			// Remember this alias pointer too: the next lookup through the
			// same tree is then lock-free.
			a.remember(e, en)
			return en
		}
	}
	en := &internEntry{id: a.nextID, e: e}
	a.nextID++
	en.la, _ = linearise(e)
	if en.la != nil && en.la.ckey != "" {
		id, ok := a.ckeyIDs[en.la.ckey]
		if !ok {
			id = uint32(len(a.ckeyIDs) + 1)
			a.ckeyIDs[en.la.ckey] = id
		}
		en.la.ckeyID = id
	}
	en.vars = expr.Vars(e)
	a.byHash[h] = append(a.byHash[h], en)
	a.mu.Unlock()
	a.remember(e, en)
	return en
}

// remember memoises e's entry. Only a store that adds an entry counts
// towards memoCap — goroutines racing to store one alias count it once — and
// the store that passes the cap clears the memo.
func (a *internArena) remember(e *expr.Expr, en *internEntry) {
	if _, loaded := a.byPtr.LoadOrStore(e, en); loaded {
		return
	}
	if n := a.memoLen.Add(1); n > memoCap && a.memoLen.CompareAndSwap(n, 0) {
		a.byPtr.Clear()
		a.resets.Add(1)
	}
}

// negation returns the entry of expr.Not(en.e). Prefix.Implies asks for the
// complements of the same atoms over and over; a fresh Not tree per call
// would be garbage on return that the memo keeps alive, so each entry
// interns its complement once and keeps it.
func (a *internArena) negation(en *internEntry) *internEntry {
	if n := en.neg.Load(); n != nil {
		return n
	}
	n := a.intern(expr.Not(en.e))
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
func (a *internArena) size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.nextID)
}

// appendInterned appends the entries of constraints, in order, to dst.
func (s *Solver) appendInterned(dst []*internEntry, constraints []*expr.Expr) []*internEntry {
	for _, c := range constraints {
		dst = append(dst, s.arena.intern(c))
	}
	return dst
}
