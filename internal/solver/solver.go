// Package solver implements the SMT-lite decision procedure Achilles uses in
// place of the STP/Z3 solvers from the paper.
//
// The solver decides satisfiability of conjunctions of boolean expressions
// over 64-bit integers. The fragment it targets is the one the Achilles
// pipeline produces: linear (in)equalities and disequalities over message
// fields and client inputs, combined with the small disjunctions produced by
// the negate operator. Non-linear atoms (division, remainder, products of
// variables) are supported through bounded enumeration and final-model
// verification rather than propagation.
//
// The procedure is:
//
//  1. flatten the query into conjunctive atoms and disjunctions,
//  2. DPLL-style splitting over disjunctions,
//  3. for pure conjunctions: interval-domain propagation over the linear
//     atoms (including back-substitution through equalities, which solves
//     checksum chains directly), then
//  4. systematic search that enumerates the smallest domain first, falling
//     back to boundary-value heuristics when a domain is too large to
//     enumerate.
//
// Every Sat answer carries a model that has been re-verified by evaluating
// all original constraints, so Sat results are sound unconditionally. Unsat
// answers are sound because enumeration is exhaustive whenever domains are
// finite and within budget; otherwise the solver answers Unknown, mirroring
// how the paper treats Z3's quantifier-heuristic failures (§3.2).
//
// A Solver is safe for concurrent use: the search state is allocated per
// query, statistics are atomic counters, and verdicts are memoised in a
// formula→verdict cache so that repeated queries — in particular the
// differentFrom and Trojan checks issued by concurrent analysis workers —
// hit memory instead of re-solving. The cache solves each key once: a
// worker that asks a key another worker is solving waits for its verdict.
package solver

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"

	"achilles/internal/expr"
)

// Version identifies the decision-procedure revision. It is folded into
// every audit input fingerprint, and with it into every bundle's
// ContentHash: bump it whenever a change can alter a verdict or a model
// (fragment semantics, enumeration policy, Unknown treatment), so campaign
// baselines computed by the old procedure are re-run instead of reused.
//
// solver/2: interned expressions, the split-gate feasible memo and
// incremental prefix handles (see intern.go, learn.go, prefix.go). The fast
// path is verdict- and model-preserving; the bump marked the cross-query
// state it introduced. A change that moves only work counters or how a
// cache key is spelled, never a verdict or a model, keeps the revision.
const Version = "solver/2"

// Result is the outcome of a satisfiability check.
type Result int

const (
	// Unsat means no assignment satisfies the constraints.
	Unsat Result = iota
	// Sat means a verified model was found.
	Sat
	// Unknown means the search budget was exhausted or the constraints left
	// a domain too large to enumerate.
	Unknown
)

// String returns "unsat", "sat" or "unknown".
func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// Stats accumulates counters across queries. A solver counts the queries
// asked through it and through every scope taken from it (Scoped), so a
// root's Stats are its process-wide totals and a scope's are its own work.
// A query publishes its work counters (Decisions, Propagations, Splits,
// Verified, FeasibleHits, RoundCaps) when it ends and, while it searches,
// every 64 decisions: a live read can lag a running query by fewer than 64
// decisions, and by the split-tree work done since the query last
// published. Once every query has returned, the totals are exact.
//
// Queries does not depend on how queries are scheduled. On a verdict cache
// shared by concurrent queries, the hit/miss split and the search counters
// do: a query that another solves first is a hit, and the solver that
// solved it counts the search.
type Stats struct {
	Queries      int // Check calls
	Decisions    int // variable assignments tried
	Propagations int // domain-tightening steps
	Splits       int // disjunction branches explored
	Verified     int // full models verified
	Unknowns     int // queries answered Unknown, however answered (see CheckPrefixCtx)
	CacheHits    int // queries answered from the verdict cache
	CacheMisses  int // queries that had to be solved

	// Fast-path counters (see intern.go, learn.go): Interned is the number
	// of structurally distinct expressions in the intern table, which a
	// solver shares with all its scopes, and FeasibleHits the number of
	// split-node feasibility gates answered "not refuted" from the memo.
	Interned     int
	FeasibleHits int

	// LearnedSets and LearnedHits are retired and always read 0: the
	// solver keeps no index of refuted conjunctions. The fields stay for
	// readers that still report them.
	LearnedSets int
	LearnedHits int

	// RoundCaps counts propagation runs stopped by the round cap before
	// reaching their fixpoint (see propagate; learn.go explains why the cap
	// must not bind on real workloads).
	RoundCaps int
}

// counter indexes the statistics a solver keeps, which are the Stats
// fields but Interned and the retired ones.
type counter int

const (
	cQueries      counter = iota // Stats.Queries
	cUnknowns                    // Stats.Unknowns
	cCacheHits                   // Stats.CacheHits
	cCacheMisses                 // Stats.CacheMisses
	cDecisions                   // Stats.Decisions
	cPropagations                // Stats.Propagations
	cSplits                      // Stats.Splits
	cVerified                    // Stats.Verified
	cFeasibleHits                // Stats.FeasibleHits
	cRoundCaps                   // Stats.RoundCaps
	nCounters
)

// counters is the concurrency-safe representation of Stats for one solver
// or scope. parent is the counters of the solver a scope was taken from:
// every add reaches it too, and through it the root's.
type counters struct {
	n      [nCounters]atomic.Int64
	parent *counters
}

// add counts n of k here and in every ancestor.
func (c *counters) add(k counter, n int64) {
	for ; c != nil; c = c.parent {
		c.n[k].Add(n)
	}
}

// get reads the count of k.
func (c *counters) get(k counter) int { return int(c.n[k].Load()) }

// Options configure a Solver.
type Options struct {
	// MaxDecisions bounds the total assignments tried per query before the
	// solver answers Unknown. Zero means the default (200000).
	MaxDecisions int
	// MaxEnumDomain is the largest domain size that is exhaustively
	// enumerated; larger domains use boundary heuristics only. Zero means
	// the default (1 << 16).
	MaxEnumDomain int64
	// DisableCache turns the verdict cache off; every Check solves afresh.
	DisableCache bool
}

// cacheEntries caps the verdict cache; one arbitrary entry is evicted on
// overflow.
const cacheEntries = 1 << 18

// Solver decides satisfiability of constraint conjunctions. A Solver may be
// reused across queries and shared between goroutines: the search state is
// per-query, statistics are atomic, and the verdict cache and its in-flight
// table sit under one mutex, held only for map lookups and stores.
type Solver struct {
	opts   Options
	stats  *counters
	cache  *verdictCache // nil when disabled
	table  *internTable  // interned expressions (intern.go)
	propOK *feasibleMemo // non-refuted split-gate index (learn.go)
}

// New returns a Solver with the given options.
func New(opts Options) *Solver {
	if opts.MaxDecisions == 0 {
		opts.MaxDecisions = 200000
	}
	if opts.MaxEnumDomain == 0 {
		opts.MaxEnumDomain = 1 << 16
	}
	s := &Solver{opts: opts, stats: &counters{}, table: &internTable{ckeyIDs: map[string]uint32{}}, propOK: newFeasibleMemo()}
	if !opts.DisableCache {
		s.cache = newVerdictCache(cacheEntries)
	}
	return s
}

// Scoped returns a scope of s: a solver that shares everything of s's but
// its counters (the verdict cache and its single flight, the intern table
// and the feasible memo), so every answer and cache key is the one s would
// give. The scope counts from zero, and each count it takes also reaches s,
// so s's Stats stay its totals and the scope's are the work asked through
// it. core.RunCtx runs every analysis on a scope of its solver, so a run's
// Stats are its own work on any solver, shared or not.
func (s *Solver) Scoped() *Solver {
	c := *s
	c.stats = &counters{parent: s.stats}
	return &c
}

// Default returns a solver with default options.
func Default() *Solver { return New(Options{}) }

// Stats returns a copy of the accumulated statistics.
func (s *Solver) Stats() Stats {
	c := s.stats
	return Stats{
		Queries:      c.get(cQueries),
		Decisions:    c.get(cDecisions),
		Propagations: c.get(cPropagations),
		Splits:       c.get(cSplits),
		Verified:     c.get(cVerified),
		Unknowns:     c.get(cUnknowns),
		CacheHits:    c.get(cCacheHits),
		CacheMisses:  c.get(cCacheMisses),
		Interned:     s.table.size(),
		FeasibleHits: c.get(cFeasibleHits),
		RoundCaps:    c.get(cRoundCaps),
	}
}

// satLimit is the saturation bound for interval arithmetic: all domain
// endpoints are clamped to [-satLimit, satLimit] so bound computation cannot
// overflow int64.
const satLimit = int64(1) << 62

// Check decides the conjunction of the given constraints. On Sat, the
// returned model assigns every variable occurring in the constraints and has
// been verified by evaluation. The model is the verdict cache's own copy,
// shared with every later query of the same constraint multiset, in any
// order: treat it as read-only.
func (s *Solver) Check(constraints []*expr.Expr) (Result, expr.Env) {
	return s.CheckCtx(context.Background(), constraints)
}

// CheckCtx is Check with cancellation: when ctx is cancelled (or its
// deadline passes) mid-search, the query aborts and answers Unknown —
// callers already treat Unknown conservatively, so an aborted query can
// never flip a verdict, only withhold one. A verdict produced under a
// cancelled context is NOT memoised: caching it would poison the verdict
// cache with budget-dependent Unknowns that outlive the cancellation. A
// query waiting for another goroutine's solve of the same key answers the
// same uncached Unknown when its own ctx fires.
func (s *Solver) CheckCtx(ctx context.Context, constraints []*expr.Expr) (Result, expr.Env) {
	return s.CheckPrefixCtx(ctx, nil, constraints...)
}

// CheckPrefixCtx decides the conjunction of the prefix's constraints and
// conds; a nil p is the empty path. Every query runs through it: the cache
// protocol (stats, key lookup, single flight, the cancellation guard,
// memoisation) wraps one solve of the prefix's flattened form extended by
// conds. The answer, the cache key and the cached entry are those of
// CheckCtx over the materialised constraint slice: the key is the sorted
// multiset of the constraints' intern IDs (see verdictCache), built by one
// merge of the prefix's sorted IDs with conds'.
//
// Each key is solved once per process. A query that misses a key another
// goroutine is solving waits for that verdict and counts as a cache hit;
// if the solving goroutine is cancelled, it caches nothing and one waiter
// solves the key instead. Returned models are shared with the cache and
// with every other query of the key: callers must not write them.
//
// Every Unknown answer counts in Stats.Unknowns, whether it was solved, read
// from the cache, taken from another query's flight or forced by a
// cancelled wait, so a scope's count does not depend on what the cache
// held before its queries.
func (s *Solver) CheckPrefixCtx(ctx context.Context, p *Prefix, conds ...*expr.Expr) (res Result, model expr.Env) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		p = emptyPrefix
	}
	s.stats.add(cQueries, 1)
	defer func() {
		if res == Unknown {
			s.stats.add(cUnknowns, 1)
		}
	}()
	// The entries and the key live on the stack unless a query outgrows
	// them, so a cache hit allocates nothing.
	var small [32]*internEntry
	ens := s.appendInterned(small[:0], conds)
	if s.cache == nil {
		return s.check(ctx, p, ens)
	}
	var buf [256]byte
	key := p.appendKey(buf[:0], ens)
	for {
		ent, ok, f, leader := s.cache.claim(key)
		switch {
		case ok:
			s.stats.add(cCacheHits, 1)
			return ent.res, ent.model
		case leader:
			s.stats.add(cCacheMisses, 1)
			res, model := s.check(ctx, p, ens)
			if ctx.Err() != nil && res == Unknown {
				// Aborted mid-search: the Unknown reflects the cancellation,
				// not the query. Report it, but do not cache it.
				s.cache.withdraw(f)
			} else {
				s.cache.put(f, verdict{res: res, model: model})
			}
			return res, model
		}
		// Another query is solving the key: its verdict answers this one as
		// a hit. A flight withdrawn by a cancelled leader sends the waiters
		// back to claim, and one of them solves the key.
		select {
		case <-f.done:
			if f.settled {
				s.stats.add(cCacheHits, 1)
				return f.v.res, f.v.model
			}
		case <-ctx.Done():
			s.stats.add(cCacheMisses, 1)
			return Unknown, nil
		}
	}
}

// check solves the prefix extended by the interned conds without
// consulting the cache, on a pooled scratch (scratch.go).
func (s *Solver) check(ctx context.Context, p *Prefix, ens []*internEntry) (Result, expr.Env) {
	if p.refuted {
		return Unsat, nil
	}
	sc := getScratch()
	res, model := s.checkOn(ctx, sc, p, ens)
	s.flush(&sc.tally)
	putScratch(sc)
	return res, model
}

// checkOn fills the scratch's split stacks with the prefix's flattened form
// extended by ens and solves them.
func (s *Solver) checkOn(ctx context.Context, sc *scratch, p *Prefix, ens []*internEntry) (Result, expr.Env) {
	sc.conj = append(sc.conj[:0], p.conj...)
	sc.disj = append(sc.disj[:0], p.disj...)
	for _, en := range ens {
		if !s.appendFlat(en, &sc.conj, &sc.disj) {
			return Unsat, nil
		}
	}
	budget := s.opts.MaxDecisions
	return s.solve(ctx, sc, len(sc.conj), 0, len(sc.disj), &budget)
}

// flattenInto splits e into conjunctive atoms (comparisons, non-linear
// leaves) and disjunction atoms, interning each. It returns false if a
// literal false was found.
func (s *Solver) flattenInto(e *expr.Expr, conj, disj *[]*internEntry) bool {
	switch e.Kind {
	case expr.KBool:
		return e.Val != 0
	case expr.KAnd:
		return s.flattenInto(e.Args[0], conj, disj) && s.flattenInto(e.Args[1], conj, disj)
	case expr.KOr:
		*disj = append(*disj, s.table.intern(e))
		return true
	default:
		*conj = append(*conj, s.table.intern(e))
		return true
	}
}

// appendFlat is flattenInto for an interned expression: an atom or a
// disjunction is its own entry, so only an And tree is walked.
func (s *Solver) appendFlat(en *internEntry, conj, disj *[]*internEntry) bool {
	switch en.e.Kind {
	case expr.KBool, expr.KAnd:
		return s.flattenInto(en.e, conj, disj)
	case expr.KOr:
		*disj = append(*disj, en)
	default:
		*conj = append(*conj, en)
	}
	return true
}

// disjuncts expands an Or tree into its top-level disjuncts.
func disjuncts(e *expr.Expr, out *[]*expr.Expr) {
	if e.Kind == expr.KOr {
		disjuncts(e.Args[0], out)
		disjuncts(e.Args[1], out)
		return
	}
	*out = append(*out, e)
}

// solve handles DPLL splitting over the disjunctions, then delegates pure
// conjunctions to solveConj. A node works on the scratch's stacks: its
// conjunction is sc.conj[:nc] and its remaining disjunctions sc.disj[di:nd].
// A split appends its part's atoms past nc and its disjunctions past nd, so
// a child's remaining list is the node's rest followed by the part's, and
// recurses; the next sibling truncates back to nc and nd. A cancelled ctx
// aborts the split tree with Unknown at the next node boundary.
func (s *Solver) solve(ctx context.Context, sc *scratch, nc, di, nd int, budget *int) (Result, expr.Env) {
	if ctx.Err() != nil {
		return Unknown, nil
	}
	if di == nd {
		return s.solveConj(ctx, sc, sc.conj[:nc], budget)
	}
	// Split-node pruning: refute the partial conjunction by propagation
	// before splitting further. Without this, a contradicted disjunct picked
	// near the root (e.g. a client-path negation whose first disjunct
	// contradicts the server path) poisons an entire subtree whose
	// infeasibility would otherwise only surface leaf by leaf — turning a
	// linear walk into an exponential one on conjunction-heavy Trojan
	// queries. Propagation-only refutation is sound (adding the remaining
	// disjuncts can never make an unsat conjunction satisfiable), so
	// verdicts are unchanged; only the visit order of the split tree
	// shrinks.
	if !s.feasible(sc, sc.conj[:nc]) {
		return Unsat, nil
	}
	// Split on the first disjunction; propagation inside solveConj will
	// quickly kill infeasible branches.
	l := s.splitOf(sc.disj[di])
	sawUnknown := false
	for i := range l.es {
		if *budget <= 0 {
			return Unknown, nil
		}
		sc.tally[cSplits]++
		p := s.part(l, i)
		if !p.ok {
			continue
		}
		sc.conj = append(sc.conj[:nc], p.conj...)
		sc.disj = append(sc.disj[:nd], p.disj...)
		res, model := s.solve(ctx, sc, len(sc.conj), di+1, len(sc.disj), budget)
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

// interval is an inclusive integer range.
type interval struct {
	lo, hi int64
}

func (iv interval) empty() bool           { return iv.lo > iv.hi }
func (iv interval) point() bool           { return iv.lo == iv.hi }
func (iv interval) size() int64           { return satAdd(satSub(iv.hi, iv.lo), 1) }
func (iv interval) contains(v int64) bool { return v >= iv.lo && v <= iv.hi }

func satAdd(a, b int64) int64 {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		if b > 0 {
			return satLimit
		}
		return -satLimit
	}
	return clamp(c)
}

func satSub(a, b int64) int64 { return satAdd(a, satNeg(b)) }

func satNeg(a int64) int64 {
	if a == -satLimit || a == satLimit {
		return -a
	}
	return clamp(-a)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a || c > satLimit || c < -satLimit {
		if (a > 0) == (b > 0) {
			return satLimit
		}
		return -satLimit
	}
	return c
}

func clamp(v int64) int64 {
	if v > satLimit {
		return satLimit
	}
	if v < -satLimit {
		return -satLimit
	}
	return v
}

// conjState is the mutable state of a conjunction search, laid out densely:
// vars is the sorted variable table and a variable's index in it is its
// slot, dom holds one domain per slot, and slots maps every atom's variables
// to their slots once per state. An assignment is simply a point domain, so
// a search child is one copied []interval rather than cloned maps.
//
// The layout (vars, dom, slots) is built by the first propagate, after
// linearConflict has had its turn: many refuted conjunctions are refuted
// there, before any domain is read. A fast-path state lives on its query's
// scratch (sc), which supplies every slice; the reference's states have no
// scratch and allocate theirs.
type conjState struct {
	sc         *scratch       // the query's scratch; nil for the reference
	depth      int            // search depth: the index of the child domain buffer
	entries    []*internEntry // interned source atoms (nil for the reference)
	atoms      []*linAtom     // linearised atoms
	nonlin     []*expr.Expr   // atoms outside the linear fragment
	nonlinVars [][]string     // sorted variable names of each nonlin atom
	orig       []*expr.Expr   // original atoms for final verification (search only)

	vars  []string   // sorted variable table; a variable's index is its slot
	dom   []interval // one domain per slot; nil until layout
	slots []int32    // slots of each atom's variables, atoms then nonlin, in order
	free  []term     // propagateAtom's scratch, shared down the search
}

// term is a variable of a linear atom that is not yet pinned to a point.
type term struct {
	slot  int32
	coeff int64
}

// layout builds the dense state: unless the reference set it up front, the
// variable table is the sorted union of the entries' variables, and every
// domain starts full.
func (cs *conjState) layout() {
	sc := cs.sc
	if cs.vars == nil && sc != nil {
		cs.vars = sc.varTable(cs.entries)
	}
	n := 0
	for _, a := range cs.atoms {
		n += len(a.vars)
	}
	for _, names := range cs.nonlinVars {
		n += len(names)
	}
	if sc != nil {
		sc.dom = grow(sc.dom, len(cs.vars))
		cs.dom = sc.dom
		if cap(sc.slots) < n {
			sc.slots = make([]int32, 0, n)
		}
		cs.slots = sc.slots[:0]
		// No atom has more free variables than the table has slots.
		if cap(sc.free) < len(cs.vars) {
			sc.free = make([]term, 0, len(cs.vars))
		}
		cs.free = sc.free[:0]
	} else {
		cs.dom = make([]interval, len(cs.vars))
		cs.slots = make([]int32, 0, n)
	}
	for i := range cs.dom {
		cs.dom[i] = interval{-satLimit, satLimit}
	}
	for _, a := range cs.atoms {
		cs.slots = appendSlots(cs.slots, cs.vars, a.vars)
	}
	for _, names := range cs.nonlinVars {
		cs.slots = appendSlots(cs.slots, cs.vars, names)
	}
}

// appendSlots appends the slot of each name in the sorted table vars.
func appendSlots(slots []int32, vars, names []string) []int32 {
	for _, v := range names {
		slots = append(slots, int32(sort.SearchStrings(vars, v)))
	}
	return slots
}

// feasible reports whether the budget-free refutation layer —
// linearConflict, interval propagation — fails to refute the conjunction:
// false means provably unsat. It runs no search, which keeps it cheap
// enough for every DPLL split node.
func (s *Solver) feasible(sc *scratch, conj []*internEntry) bool {
	// The gate is a pure function of the atom set (see learn.go), so the
	// "not refuted" answer is memoised: sibling split branches rebuild the
	// same partial conjunctions over and over, and a hit skips the whole
	// conjState build and propagation. The answer feeds nothing downstream
	// but the split/no-split decision, so replaying it cannot shift
	// verdicts.
	key := sc.atomSetKey(conj)
	if s.propOK.has(key) {
		sc.tally[cFeasibleHits]++
		return true
	}
	cs := sc.conjState(conj)
	if linearConflict(cs.atoms) || !s.propagate(&cs) {
		return false
	}
	s.propOK.add(key)
	return true
}

// solveConj decides a pure conjunction of atoms. The budget-free refutation
// layer (pairwise conflicts, propagation) runs first; only then is the
// decision budget spent on search.
func (s *Solver) solveConj(ctx context.Context, sc *scratch, conj []*internEntry, budget *int) (Result, expr.Env) {
	cs := sc.conjState(conj)
	if linearConflict(cs.atoms) || !s.propagate(&cs) {
		return Unsat, nil
	}
	cs.orig = sc.orig[:0]
	for _, en := range conj {
		cs.orig = append(cs.orig, en.e)
	}
	sc.orig = cs.orig
	return s.search(ctx, &cs, budget)
}

// propagate runs domain tightening to a fixpoint, laying the state out on
// first use. It returns false when a domain became empty (conflict). The
// round cap is a termination backstop for adversarial narrowing chains; a
// run it stops short of the fixpoint is counted in Stats.RoundCaps.
func (s *Solver) propagate(cs *conjState) bool {
	const maxRounds = 64
	if cs.dom == nil {
		cs.layout()
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		slots := cs.slots
		for _, a := range cs.atoms {
			ok, ch := s.propagateAtom(cs, a, slots[:len(a.vars)])
			if !ok {
				return false
			}
			slots = slots[len(a.vars):]
			changed = changed || ch
		}
		// Try to finish non-linear atoms that became concrete.
		for i, nl := range cs.nonlin {
			n := len(cs.nonlinVars[i])
			if env := cs.pointEnv(slots[:n]); env != nil {
				if v, err := expr.EvalBool(nl, env); err == nil && !v {
					return false
				}
			}
			slots = slots[n:]
		}
		if !changed {
			return true
		}
	}
	s.add(cs, cRoundCaps)
	return true
}

// pointEnv binds the variables at slots if every one of them is pinned to a
// point domain; otherwise it returns nil and the atom is not decidable yet.
// (Evaluating it would fail on an unbound variable: the constructors fold
// every variable-free operand, so no And or Or can short-circuit past one.
// propagate skips that evaluation, and the error it would allocate.) A
// fast-path state binds them in its scratch's env, valid until the next
// pointEnv call.
func (cs *conjState) pointEnv(slots []int32) expr.Env {
	for _, sl := range slots {
		if !cs.dom[sl].point() {
			return nil
		}
	}
	var env expr.Env
	if cs.sc != nil {
		env = cs.sc.point
		clear(env)
	} else {
		env = make(expr.Env, len(slots))
	}
	for _, sl := range slots {
		env[cs.vars[sl]] = cs.dom[sl].lo
	}
	return env
}

// setDomain narrows the domain at slot sl, reporting (ok, changed).
func (cs *conjState) setDomain(sl int32, iv interval) (bool, bool) {
	cur := cs.dom[sl]
	nlo, nhi := cur.lo, cur.hi
	if iv.lo > nlo {
		nlo = iv.lo
	}
	if iv.hi < nhi {
		nhi = iv.hi
	}
	if nlo > nhi {
		return false, true
	}
	if nlo == cur.lo && nhi == cur.hi {
		return true, false
	}
	cs.dom[sl] = interval{nlo, nhi}
	return true, true
}

// propagateAtom tightens domains using one linear atom whose variables sit
// at slots. Atom form: sum(coeff_i * x_i) + c  OP  0 with OP in {<=, ==, !=}.
func (s *Solver) propagateAtom(cs *conjState, a *linAtom, slots []int32) (ok, changed bool) {
	s.add(cs, cPropagations)
	// Partition into pinned and free, folding pinned values into c.
	c := a.c
	free := cs.free[:0]
	for i, sl := range slots {
		if d := cs.dom[sl]; d.point() {
			c = satAdd(c, satMul(a.coeffs[i], d.lo))
			continue
		}
		free = append(free, term{sl, a.coeffs[i]})
	}
	cs.free = free
	if len(free) == 0 {
		switch a.op {
		case opLe:
			return c <= 0, false
		case opEq:
			return c == 0, false
		case opNe:
			return c != 0, false
		}
	}
	// Bounds of the free part. othersBounds(skip) recomputes the bounds of
	// c + Σ_{u≠skip} coeff_u·x_u from scratch: subtracting a term from a
	// *saturated* total would silently widen or corrupt the bound, so per-
	// target bounds are never derived from the totals.
	othersBounds := func(skip int) (lo, hi int64) {
		lo, hi = c, c
		for j, t := range free {
			if j == skip {
				continue
			}
			d := cs.dom[t.slot]
			p1, p2 := satMul(t.coeff, d.lo), satMul(t.coeff, d.hi)
			if p1 > p2 {
				p1, p2 = p2, p1
			}
			lo = satAdd(lo, p1)
			hi = satAdd(hi, p2)
		}
		return lo, hi
	}
	sumLo, sumHi := othersBounds(-1)
	switch a.op {
	case opNe:
		// Only useful when a single free var with unit coefficient and the
		// excluded value sits on a domain boundary.
		if len(free) == 1 && (free[0].coeff == 1 || free[0].coeff == -1) {
			// coeff*x + c != 0 => x != -c/coeff
			excl := satNeg(c)
			if free[0].coeff == -1 {
				excl = c
			}
			d := cs.dom[free[0].slot]
			if d.point() && d.lo == excl {
				return false, true
			}
			if d.lo == excl {
				okSet, ch := cs.setDomain(free[0].slot, interval{excl + 1, d.hi})
				return okSet, ch
			}
			if d.hi == excl {
				okSet, ch := cs.setDomain(free[0].slot, interval{d.lo, excl - 1})
				return okSet, ch
			}
		}
		return true, false
	case opLe:
		if sumLo > 0 {
			return false, true
		}
		// Tighten each free var: coeff*x <= -(c + others)
		for i, t := range free {
			othersLo, _ := othersBounds(i)
			bound := satNeg(othersLo) // coeff*x <= bound
			var iv interval
			if t.coeff > 0 {
				iv = interval{-satLimit, floorDiv(bound, t.coeff)}
			} else {
				iv = interval{ceilDiv(bound, t.coeff), satLimit}
			}
			okSet, ch := cs.setDomain(t.slot, iv)
			if !okSet {
				return false, true
			}
			changed = changed || ch
		}
		return true, changed
	case opEq:
		if sumLo > 0 || sumHi < 0 {
			return false, true
		}
		for i, t := range free {
			othersLo, othersHi := othersBounds(i)
			// coeff*x = -(c + others) => bounds from others' range.
			vLo := satNeg(othersHi)
			vHi := satNeg(othersLo)
			var iv interval
			if t.coeff == 1 {
				iv = interval{vLo, vHi}
			} else if t.coeff == -1 {
				iv = interval{satNeg(vHi), satNeg(vLo)}
			} else if t.coeff > 0 {
				iv = interval{ceilDiv(vLo, t.coeff), floorDiv(vHi, t.coeff)}
			} else {
				iv = interval{ceilDiv(vHi, t.coeff), floorDiv(vLo, t.coeff)}
			}
			okSet, ch := cs.setDomain(t.slot, iv)
			if !okSet {
				return false, true
			}
			changed = changed || ch
		}
		return true, changed
	}
	return true, false
}

// floorDiv and ceilDiv are division rounding toward -inf / +inf.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return clamp(q)
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return clamp(q)
}

// ctxCheckMask paces cancellation polling inside the enumeration loop:
// ctx.Err() takes a lock on cancellable contexts, so it is consulted every
// 64 decisions rather than on each one. 64 decisions re-propagate domains
// in well under a millisecond, keeping abort latency negligible. The same
// poll publishes the query's work tally, so a live Stats read lags a
// search by fewer than 64 decisions.
const ctxCheckMask = 63

// search enumerates assignments. It always verifies candidate models against
// the original atoms before reporting Sat.
func (s *Solver) search(ctx context.Context, cs *conjState, budget *int) (Result, expr.Env) {
	if *budget <= 0 {
		return Unknown, nil
	}
	// Choose the unassigned variable with the smallest domain; ties go to
	// the lowest slot, which is the smallest name.
	best := -1
	var bestSize int64
	for i, d := range cs.dom {
		if d.point() {
			continue
		}
		if sz := d.size(); best < 0 || sz < bestSize {
			best, bestSize = i, sz
		}
	}
	if best < 0 {
		return s.finish(cs)
	}
	// An enumerable domain is counted up from lo; a larger one tries the
	// boundary heuristics only.
	d := cs.dom[best]
	n, exhaustive := bestSize, bestSize <= s.opts.MaxEnumDomain
	var buf [15]int64
	var candidates []int64
	if !exhaustive {
		candidates = boundaryCandidates(&buf, d)
		n = int64(len(candidates))
	}
	// One child domain buffer per node, refilled for each candidate: the
	// scratch's buffer for the child's depth, which no other live node
	// uses.
	child := *cs
	child.depth = cs.depth + 1
	if cs.sc != nil {
		child.dom = cs.sc.domBuf(cs.depth, len(cs.dom))
	} else {
		child.dom = make([]interval, len(cs.dom))
	}
	sawUnknown := !exhaustive
	for k := int64(0); k < n; k++ {
		v := d.lo + k
		if !exhaustive {
			v = candidates[k]
		}
		if *budget <= 0 {
			return Unknown, nil
		}
		if *budget&ctxCheckMask == 0 {
			if cs.sc != nil {
				s.flush(&cs.sc.tally)
			}
			if ctx.Err() != nil {
				return Unknown, nil
			}
		}
		*budget--
		s.add(cs, cDecisions)
		copy(child.dom, cs.dom)
		child.dom[best] = interval{v, v}
		if !s.propagate(&child) {
			continue
		}
		res, model := s.search(ctx, &child, budget)
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

// boundaryCandidates picks heuristic values from a domain too large to
// enumerate. Small magnitudes come first so that models (and therefore the
// concrete Trojan examples shown to users) stay human-readable; the domain
// bounds follow for constraints that force large values.
// The distinct ones are written to buf, which the returned slice shares.
func boundaryCandidates(buf *[15]int64, d interval) []int64 {
	raw := [15]int64{0, 1, -1, 2, -2, 7, 42, 100, -100, 255,
		d.hi, d.lo, d.hi - 1, d.lo + 1, d.lo/2 + d.hi/2}
	out := buf[:0]
	for _, v := range raw {
		if d.contains(v) && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// finish validates a full assignment against all original constraints. A
// fast-path state verifies in its scratch's env and copies it out only for
// a Sat model.
func (s *Solver) finish(cs *conjState) (Result, expr.Env) {
	var env expr.Env
	if cs.sc != nil {
		env = cs.sc.env
		clear(env)
	} else {
		env = make(expr.Env, len(cs.vars))
	}
	for i, v := range cs.vars {
		env[v] = cs.dom[i].lo
	}
	s.add(cs, cVerified)
	for _, a := range cs.orig {
		v, err := expr.EvalBool(a, env)
		if err != nil || !v {
			return Unsat, nil
		}
	}
	if cs.sc != nil {
		env = make(expr.Env, len(cs.vars))
		for i, v := range cs.vars {
			env[v] = cs.dom[i].lo
		}
	}
	return Sat, env
}
