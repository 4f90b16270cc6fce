package solver

// Hash-consed expression interning. Every expression the solver touches is
// resolved to a per-solver internEntry exactly once; the entry caches the
// three derived forms the hot path used to recompute per query:
//
//   - the canonical rendering (the unit of queryKey — the verdict-cache and
//     persisted-cache key format is unchanged, it is now assembled from
//     cached strings instead of re-rendered trees);
//   - the linearisation (linAtom or "outside the fragment");
//   - the sorted variable list (the unit of conjState's variable table).
//
// Entries also carry a stable per-solver ID. IDs order by first-intern time,
// which is scheduling-dependent under concurrent analysis workers — they are
// therefore never persisted and never compared across solvers; their only
// use is as set-membership keys of the split-gate feasible memo, which are
// order-insensitive. Prefix subsumption compares the entries themselves.
//
// Unification is structural: hash buckets resolved with expr.Equal are the
// only source of truth, so two structurally equal trees always map to one
// entry and an entry can never alias two distinct expressions. In front of
// them sits a pointer memo (path-constraint slices share expression pointers
// across sibling states, so it hits almost always). The memo keeps every
// pointer it holds alive, and every job on a long-lived solver (a daemon's,
// a campaign's) builds fresh trees, so the memo is cleared once it has taken
// memoCap new entries. A reset costs time only: a cleared pointer re-resolves
// through the hash buckets to the same entry — same ID, rendering,
// linearisation and ckeyID — so no verdict, model, cache key or feasible-memo
// key can change. A scoped solver (Solver.Scoped) resolves through the same
// buckets with a memo of its own, which goes when the scoped solver does.

import (
	"slices"
	"sync"
	"sync/atomic"

	"achilles/internal/expr"
)

// memoCap bounds the pointer memo. A whole audit on a fresh solver (the fleet
// campaign, the rich FSP corpus) stores about 9k entries, so only solvers
// that outlive an audit ever reset it.
const memoCap = 1 << 14

// internEntry is the canonical per-solver record of one structurally
// distinct expression. Immutable after construction, except that neg is
// filled in on first use.
type internEntry struct {
	id     uint64
	e      *expr.Expr
	render string                      // e.String(), computed once
	la     *linAtom                    // linearisation; nil when e is outside the linear fragment
	vars   []string                    // sorted variable names of e
	neg    atomic.Pointer[internEntry] // entry of expr.Not(e); see negation
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
	en := &internEntry{id: a.nextID, e: e, render: e.String()}
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

// size reports the number of distinct interned expressions.
func (a *internArena) size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.nextID)
}

// internAll interns a constraint slice in order.
func (s *Solver) internAll(constraints []*expr.Expr) []*internEntry {
	out := make([]*internEntry, len(constraints))
	for i, c := range constraints {
		out[i] = s.arena.intern(c)
	}
	return out
}

// varTable returns the sorted, duplicate-free union of the entries'
// variable names — the list expr.VarsOf computes by walking the trees,
// assembled from the cached per-entry lists instead.
func varTable(entries []*internEntry) []string {
	n := 0
	for _, en := range entries {
		n += len(en.vars)
	}
	out := make([]string, 0, n)
	for _, en := range entries {
		out = append(out, en.vars...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
