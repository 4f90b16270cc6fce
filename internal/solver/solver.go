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
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"achilles/internal/expr"
)

// Version identifies the decision-procedure revision. It is stamped into
// persisted verdict caches and folded into audit input fingerprints: bump it
// whenever a change can alter a verdict (fragment semantics, enumeration
// policy, Unknown treatment), so stale on-disk caches are discarded at load
// instead of replaying verdicts this solver would no longer produce.
//
// solver/2: interned expressions, the split-gate feasible memo and
// incremental prefix handles (see intern.go, learn.go, prefix.go). The
// decision procedure is designed to be verdict- and model-preserving, but
// the fast path introduces cross-query state that the solver/1 revision did
// not have, so caches written by solver/1 are refused rather than replayed.
// A change that moves only work counters, never a verdict, model or cache
// key, keeps the revision: it is folded into every input fingerprint, and
// with it into every bundle's ContentHash.
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

// Stats accumulates counters across queries; read them for the evaluation
// harness, reset them with ResetStats.
type Stats struct {
	Queries      int // Check calls
	Decisions    int // variable assignments tried
	Propagations int // domain-tightening steps
	Splits       int // disjunction branches explored
	Verified     int // full models verified
	Unknowns     int // queries answered Unknown
	CacheHits    int // queries answered from the verdict cache
	CacheMisses  int // queries that had to be solved

	// Reverified counts loaded (persisted) verdicts confirmed against the
	// live query — Sat models re-evaluated, sampled Unsat/Unknown verdicts
	// re-solved. ReverifyFailed counts loaded verdicts the live check
	// contradicted; they are replaced, never served.
	Reverified     int
	ReverifyFailed int

	// Fast-path counters (see intern.go, learn.go): Interned is the number
	// of structurally distinct expressions in the arena, FeasibleHits the
	// number of split-node feasibility gates answered "not refuted" from
	// the memo, and MemoResets the number of times the arena's bounded
	// pointer memo was cleared (only a solver that outlives one audit
	// reaches the bound).
	Interned     int
	FeasibleHits int
	MemoResets   int

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

// counters is the internal, concurrency-safe representation of Stats.
type counters struct {
	queries        atomic.Int64
	decisions      atomic.Int64
	propagations   atomic.Int64
	splits         atomic.Int64
	verified       atomic.Int64
	unknowns       atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	reverified     atomic.Int64
	reverifyFailed atomic.Int64
	feasibleHits   atomic.Int64
	roundCaps      atomic.Int64
	// loadedProbe counts loaded Unsat/Unknown hits, for sampling; it is
	// not reported.
	loadedProbe atomic.Int64
}

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
	arena  *internArena  // hash-consed expressions (intern.go)
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
	s := &Solver{opts: opts, stats: &counters{}, arena: newInternArena(), propOK: newFeasibleMemo()}
	if !opts.DisableCache {
		s.cache = newVerdictCache(cacheEntries)
	}
	return s
}

// Scoped returns a solver that shares s's verdict cache and its single
// flight, intern entries, feasible memo and statistics, but keeps its own
// expression-pointer memo. Every answer, cache key and counter is the one
// s would give. Engines whose trees nothing looks up once they return
// (core's client extraction) run on a scoped solver, so those trees are
// garbage when it goes, instead of staying live in s's memo until s goes
// or the memo passes its bound.
func (s *Solver) Scoped() *Solver {
	c := *s
	c.arena = s.arena.scoped()
	return &c
}

// Default returns a solver with default options.
func Default() *Solver { return New(Options{}) }

// Stats returns a copy of the accumulated statistics.
func (s *Solver) Stats() Stats {
	return Stats{
		Queries:      int(s.stats.queries.Load()),
		Decisions:    int(s.stats.decisions.Load()),
		Propagations: int(s.stats.propagations.Load()),
		Splits:       int(s.stats.splits.Load()),
		Verified:     int(s.stats.verified.Load()),
		Unknowns:     int(s.stats.unknowns.Load()),
		CacheHits:    int(s.stats.cacheHits.Load()),
		CacheMisses:  int(s.stats.cacheMisses.Load()),

		Reverified:     int(s.stats.reverified.Load()),
		ReverifyFailed: int(s.stats.reverifyFailed.Load()),

		Interned:     s.arena.size(),
		FeasibleHits: int(s.stats.feasibleHits.Load()),
		MemoResets:   int(s.arena.resets.Load()),
		RoundCaps:    int(s.stats.roundCaps.Load()),
	}
}

// ResetStats zeroes the statistics counters.
func (s *Solver) ResetStats() {
	s.stats.queries.Store(0)
	s.stats.decisions.Store(0)
	s.stats.propagations.Store(0)
	s.stats.splits.Store(0)
	s.stats.verified.Store(0)
	s.stats.unknowns.Store(0)
	s.stats.cacheHits.Store(0)
	s.stats.cacheMisses.Store(0)
	s.stats.reverified.Store(0)
	s.stats.reverifyFailed.Store(0)
	s.stats.feasibleHits.Store(0)
	s.stats.roundCaps.Store(0)
	s.arena.resets.Store(0)
}

// satLimit is the saturation bound for interval arithmetic: all domain
// endpoints are clamped to [-satLimit, satLimit] so bound computation cannot
// overflow int64.
const satLimit = int64(1) << 62

// Check decides the conjunction of the given constraints. On Sat, the
// returned model assigns every variable occurring in the constraints and has
// been verified by evaluation. The model is the verdict cache's own copy,
// shared with every later query of the same key: treat it as read-only.
//
// Entries restored by LoadCache are not served blindly: a loaded Sat verdict
// is re-verified by evaluating the live query under its stored model, and a
// deterministic 1-in-reverifySample of loaded Unsat/Unknown verdicts is
// re-solved and compared. A loaded verdict the live check contradicts is
// replaced and counted in Stats.ReverifyFailed.
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
// protocol (stats, key lookup, single flight, loaded-entry
// re-verification, the cancellation guard, memoisation) wraps one solve of
// the prefix's flattened form extended by conds. The answer, the cache key
// and the cached entry are those of CheckCtx over the materialised
// constraint slice.
//
// Each key is solved once per process. A query that misses a key another
// goroutine is solving waits for that verdict and counts as a cache hit;
// if the solving goroutine is cancelled, it caches nothing and one waiter
// solves the key instead. Returned models are shared with the cache and
// with every other query of the key: callers must not write them.
func (s *Solver) CheckPrefixCtx(ctx context.Context, p *Prefix, conds ...*expr.Expr) (Result, expr.Env) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		p = emptyPrefix
	}
	s.stats.queries.Add(1)
	ens := s.internAll(conds)
	var key string
	var loaded *verdict
	var lead *flight
	if s.cache != nil {
		key = p.key(ens)
	claim:
		for {
			ent, ok, f, leader := s.cache.claim(key)
			switch {
			case ok:
				if !ent.loaded || s.trustLoaded(key, ent, p.constraints(ens)) {
					s.stats.cacheHits.Add(1)
					return ent.res, ent.model
				}
				loaded = &ent // distrusted: re-solve and compare below
				break claim
			case leader:
				lead = f
				break claim
			}
			// Another query is solving the key: its verdict answers this
			// one as a hit. A flight withdrawn by a cancelled leader sends
			// the waiters back to claim, and one of them solves the key.
			select {
			case <-f.done:
				if f.settled {
					s.stats.cacheHits.Add(1)
					return f.v.res, f.v.model
				}
			case <-ctx.Done():
				s.stats.cacheMisses.Add(1)
				s.stats.unknowns.Add(1)
				return Unknown, nil
			}
		}
		s.stats.cacheMisses.Add(1)
	}
	res, model := s.check(ctx, p, ens)
	if ctx.Err() != nil && res == Unknown {
		// Aborted mid-search: the Unknown reflects the cancellation, not the
		// query. Report it, but neither cache it nor let it indict a loaded
		// verdict under re-verification.
		if lead != nil {
			s.cache.withdraw(key, lead)
		}
		return res, model
	}
	if loaded != nil {
		// A Sat entry only reaches the re-solve path when its stored model
		// failed evaluation — that is a failure even if the fresh verdict is
		// Sat again. Unsat/Unknown entries reach it as the re-solve sample
		// and fail only on a verdict flip.
		if loaded.res == Sat || loaded.res != res {
			s.stats.reverifyFailed.Add(1)
		} else {
			s.stats.reverified.Add(1)
		}
	}
	if s.cache != nil {
		s.cache.put(key, verdict{res: res, model: model}, lead)
	}
	return res, model
}

// reverifySample is the sampling period for loaded Unsat/Unknown verdicts:
// the first and every reverifySample-th such hit is re-solved instead of
// trusted, so a poisoned or stale cache file is noticed early without
// re-proving the whole file.
const reverifySample = 16

// trustLoaded decides whether a verdict restored from disk may be served
// as-is. Sat entries are verified unconditionally by evaluating the query
// under the stored model — cheap, and it makes a corrupt model harmless (the
// query just goes back to the solver). Unsat and Unknown entries carry no
// checkable witness, so a sampled subset is sent back to the solver instead;
// Check compares the fresh verdict against the loaded one. Trusted entries
// are promoted to regular entries, paying the verification cost once.
func (s *Solver) trustLoaded(key string, ent verdict, constraints []*expr.Expr) bool {
	switch ent.res {
	case Sat:
		// Models omit variables that occur only in a disjunct the search
		// never chose. Binding those to 0 evaluates the live query under a
		// total assignment, which is as sound a witness as the stored model;
		// the stored model is still what the hit serves.
		env := expr.Env{}
		maps.Copy(env, ent.model)
		vars := map[string]bool{}
		for _, c := range constraints {
			expr.CollectVars(c, vars)
		}
		for name := range vars {
			if _, ok := env[name]; !ok {
				env[name] = 0
			}
		}
		for _, c := range constraints {
			v, err := expr.EvalBool(c, env)
			if err != nil || !v {
				return false
			}
		}
		s.stats.reverified.Add(1)
	default:
		if s.stats.loadedProbe.Add(1)%reverifySample == 1 {
			return false
		}
	}
	s.cache.put(key, verdict{res: ent.res, model: ent.model}, nil)
	return true
}

// check solves the prefix extended by the interned conds without
// consulting the cache.
func (s *Solver) check(ctx context.Context, p *Prefix, ens []*internEntry) (Result, expr.Env) {
	if p.refuted {
		return Unsat, nil
	}
	// The prefix's slices are shared with every query on it: conj is copied
	// and disj clipped, so appending never writes into them.
	conj := append(make([]*internEntry, 0, len(p.conj)+len(ens)), p.conj...)
	disj := slices.Clip(p.disj)
	for _, en := range ens {
		if !s.flattenInto(en.e, &conj, &disj) {
			return Unsat, nil
		}
	}
	budget := s.opts.MaxDecisions
	res, model := s.solve(ctx, conj, disj, &budget)
	if res == Unknown {
		s.stats.unknowns.Add(1)
	}
	return res, model
}

// CheckExpr decides a single (possibly compound) boolean expression.
func (s *Solver) CheckExpr(e *expr.Expr) (Result, expr.Env) {
	return s.Check([]*expr.Expr{e})
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
		*disj = append(*disj, s.arena.intern(e))
		return true
	default:
		*conj = append(*conj, s.arena.intern(e))
		return true
	}
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
// conjunctions to solveConj. A cancelled ctx aborts the split tree with
// Unknown at the next node boundary.
func (s *Solver) solve(ctx context.Context, conj, disj []*internEntry, budget *int) (Result, expr.Env) {
	if ctx.Err() != nil {
		return Unknown, nil
	}
	if len(disj) == 0 {
		return s.solveConj(ctx, conj, budget)
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
	if !s.feasible(conj) {
		return Unsat, nil
	}
	// Split on the first disjunction; propagation inside solveConj will
	// quickly kill infeasible branches.
	d := disj[0]
	rest := disj[1:]
	var parts []*expr.Expr
	disjuncts(d.e, &parts)
	sawUnknown := false
	for _, p := range parts {
		if *budget <= 0 {
			return Unknown, nil
		}
		s.stats.splits.Add(1)
		subConj := append([]*internEntry{}, conj...)
		subDisj := append([]*internEntry{}, rest...)
		if !s.flattenInto(p, &subConj, &subDisj) {
			continue
		}
		res, model := s.solve(ctx, subConj, subDisj, budget)
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
// there, before any domain is read.
type conjState struct {
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

// newConjState assembles the conjunction search state from interned entries:
// linearisations and variable lists come from the arena instead of being
// recomputed. The dense layout is left to the first propagate: the
// refutation layer in front of it needs only the atoms. The state is
// returned by value so that it can live on the caller's stack.
func (s *Solver) newConjState(entries []*internEntry) conjState {
	cs := conjState{entries: entries, atoms: make([]*linAtom, 0, len(entries))}
	for _, en := range entries {
		if en.la != nil {
			cs.atoms = append(cs.atoms, en.la)
		} else {
			cs.nonlin = append(cs.nonlin, en.e)
			cs.nonlinVars = append(cs.nonlinVars, en.vars)
		}
	}
	return cs
}

// layout builds the dense state: unless the reference set it up front, the
// variable table is the sorted union of the entries' variables, and every
// domain starts full.
func (cs *conjState) layout() {
	if cs.vars == nil {
		cs.vars = varTable(cs.entries)
	}
	cs.dom = make([]interval, len(cs.vars))
	for i := range cs.dom {
		cs.dom[i] = interval{-satLimit, satLimit}
	}
	n := 0
	for _, a := range cs.atoms {
		n += len(a.vars)
	}
	for _, names := range cs.nonlinVars {
		n += len(names)
	}
	cs.slots = make([]int32, 0, n)
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
func (s *Solver) feasible(conj []*internEntry) bool {
	// The gate is a pure function of the atom set (see learn.go), so the
	// "not refuted" answer is memoised: sibling split branches rebuild the
	// same partial conjunctions over and over, and a hit skips the whole
	// conjState build and propagation. The answer feeds nothing downstream
	// but the split/no-split decision, so replaying it cannot shift
	// verdicts.
	key := atomSetKey(conj)
	if s.propOK.has(key) {
		s.stats.feasibleHits.Add(1)
		return true
	}
	cs := s.newConjState(conj)
	if linearConflict(cs.atoms) || !s.propagate(&cs) {
		return false
	}
	s.propOK.add(key)
	return true
}

// solveConj decides a pure conjunction of atoms. The budget-free refutation
// layer (pairwise conflicts, propagation) runs first; only then is the
// decision budget spent on search.
func (s *Solver) solveConj(ctx context.Context, conj []*internEntry, budget *int) (Result, expr.Env) {
	cs := s.newConjState(conj)
	if linearConflict(cs.atoms) || !s.propagate(&cs) {
		return Unsat, nil
	}
	cs.orig = make([]*expr.Expr, len(conj))
	for i, en := range conj {
		cs.orig[i] = en.e
	}
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
			if v, err := expr.EvalBool(nl, cs.pointEnv(slots[:n])); err == nil && !v {
				return false
			}
			slots = slots[n:]
		}
		if !changed {
			return true
		}
	}
	s.stats.roundCaps.Add(1)
	return true
}

// pointEnv binds the variables at slots if every one of them is pinned to a
// point domain; otherwise it returns nil (EvalBool will error on the unbound
// variable, which callers treat as "not decidable yet").
func (cs *conjState) pointEnv(slots []int32) expr.Env {
	for _, sl := range slots {
		if !cs.dom[sl].point() {
			return nil
		}
	}
	env := make(expr.Env, len(slots))
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
	s.stats.propagations.Add(1)
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
// in well under a millisecond, keeping abort latency negligible.
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
	// One child domain buffer per node, refilled for each candidate.
	child := *cs
	child.dom = make([]interval, len(cs.dom))
	sawUnknown := !exhaustive
	for k := int64(0); k < n; k++ {
		v := d.lo + k
		if !exhaustive {
			v = candidates[k]
		}
		if *budget <= 0 {
			return Unknown, nil
		}
		if *budget&ctxCheckMask == 0 && ctx.Err() != nil {
			return Unknown, nil
		}
		*budget--
		s.stats.decisions.Add(1)
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

// finish validates a full assignment against all original constraints.
func (s *Solver) finish(cs *conjState) (Result, expr.Env) {
	env := make(expr.Env, len(cs.vars))
	for i, v := range cs.vars {
		env[v] = cs.dom[i].lo
	}
	s.stats.verified.Add(1)
	for _, a := range cs.orig {
		v, err := expr.EvalBool(a, env)
		if err != nil || !v {
			return Unsat, nil
		}
	}
	return Sat, env
}
