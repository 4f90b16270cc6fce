// Package core implements the Achilles algorithm from "Finding Trojan
// Message Vulnerabilities in Distributed Systems" (ASPLOS 2014).
//
// Phase 1 extracts the client predicate PC — the disjunction of client path
// predicates, one per execution path of a client that sends a message — by
// running the client models symbolically and capturing every send() together
// with its path constraints (§3.1).
//
// Phase 2 explores the server symbolically while incrementally searching for
// Trojan messages (§3.2, §3.3): every server state tracks the set of client
// path predicates that can still trigger it; branches drop dead client
// paths (helped by the precomputed differentFrom matrix); a state is pruned
// as soon as no Trojan message can reach it; states that reach accept()
// therefore contain Trojan messages by construction.
//
// The negate operator is the paper's under-approximation (§3.2): per-field
// negation with overlap elimination (§4.1), so reported Trojan classes never
// intersect the client predicate.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"achilles/internal/expr"
	"achilles/internal/lang"
	"achilles/internal/solver"
	"achilles/internal/symexec"
)

// FieldKind classifies a message field expression within one client path.
type FieldKind uint8

// Field classifications used by the negate operator (§3.2).
const (
	FieldConst FieldKind = iota // concrete value: negation is m_f != c (exact)
	FieldVar                    // pure symbolic input with own constraints
	FieldExpr                   // expression over symbolic inputs
	FieldFree                   // unconstrained: negation abandoned
	FieldState                  // shared symbolic local state: negation is m_f != state (exact)
)

// ClientPath is one client path predicate pathC_i: the message field
// expressions and the path constraints captured at a send().
type ClientPath struct {
	ID          int
	Origin      string       // which client program produced it
	Fields      []*expr.Expr // E_f(λ): field expressions over input vars
	Constraints []*expr.Expr // K(λ): path constraints

	// Precomputed artifacts (built by the predicate preprocessor):
	// kvars[k] is the sorted variable list of Constraints[k], built once
	// and read by every preprocessing step that asks which constraints a
	// variable set touches; preprocessing drops it when it returns.
	kvars     [][]string
	fieldKind []FieldKind
	// bind: m_f == E'_f for every field plus K', with input vars renamed
	// c{ID}_*; satisfiable together with a server path iff a message on that
	// server path is generatable by this client path. Built by Bind on first
	// read, through pc, the predicate that preprocessed the path (nil
	// before): a run reads few of them (32 of 256 on the rich FSP corpus).
	pc       *ClientPredicate
	bindOnce sync.Once
	bind     []*expr.Expr
	// negation is negate(pathC): the kept per-field negation disjuncts over
	// the server message vars, folded into one disjunction in field order
	// (false when every field was abandoned).
	negation *expr.Expr
	// negClass numbers the path's negation among the distinct ones: two
	// paths share a class exactly when their negations are structurally
	// equal, so the server phase deduplicates a live set's negations by
	// class instead of comparing trees.
	negClass int
	// simpleField[f] reports that field f is "independent" in the paper's
	// sense: a constant or a pure input var whose constraints mention only
	// that var, enabling differentFrom reasoning.
	simpleField []bool
	// bindKey is a canonical signature of the path's *message-relevant*
	// predicate: the field expressions plus the constraints transitively
	// connected to them, with input variables renamed in encounter order.
	// Paths with equal bindKeys admit exactly the same messages (they
	// differ only in local-only behaviour such as flag handling), so one
	// satisfiability verdict against a server path serves the whole group.
	bindKey string
	// bindClass numbers the path's bindKey among the distinct ones, in path
	// order, so the server phase indexes its per-group verdicts and models
	// by class in slices.
	bindClass int
}

// BindKey exposes the canonical message-relevant signature.
func (cp *ClientPath) BindKey() string { return cp.bindKey }

// Bind returns the binding constraints (message equality plus client path
// constraints, alpha-renamed), built on the first call and cached; nil when
// the path was never preprocessed. Safe for concurrent use. The slice must
// not be modified.
func (cp *ClientPath) Bind() []*expr.Expr {
	if cp.pc == nil {
		return nil
	}
	cp.bindOnce.Do(func() { cp.bind = cp.pc.buildBind(cp) })
	return cp.bind
}

// Negation returns negate(pathC) as a single disjunction over the server
// message variables, skipping abandoned fields. An empty disjunction (false)
// means the negation was abandoned for every field, or the predicate was not
// preprocessed: no message can be proven non-generatable.
func (cp *ClientPath) Negation() *expr.Expr { return cp.negation }

// Tri is a three-valued truth value used by the differentFrom matrix.
type Tri uint8

// Tri values.
const (
	TriUnknown Tri = iota
	TriYes
	TriNo
)

// ClientPredicate is PC: all client path predicates plus the precomputed
// structures from §3.3.
type ClientPredicate struct {
	Paths     []*ClientPath
	NumFields int
	// FieldNames optionally names message fields for reports.
	FieldNames []string
	// MsgPrefix is the server message variable prefix ("m": fields are
	// m0, m1, ...).
	MsgPrefix string
	// msgVars holds one message variable node per field, built when
	// preprocessing starts and shared by every bind, negation and
	// verification query (see msgVar).
	msgVars []*expr.Expr
	// members[i][f] is path i's value-set predicate for field f over
	// memberVar: true exactly at the values path i can place in field f.
	// Nil when the field is masked or not simple. The §4 guard evaluates
	// them at a concrete message to rule client paths out without a solver
	// query.
	members [][]*expr.Expr
	// memberClass[i][f] numbers members[i][f] by its rendering, so paths
	// that place the same value set in a field share a member class; -1
	// where members[i][f] is nil. classDiff is the differentFrom matrix
	// over member classes, numClasses × numClasses in row-major order:
	// classDiff[a·numClasses+b] = TriYes when class a holds a value class
	// b does not, TriNo when provably not (a's values are a subset of b's),
	// TriUnknown when undecided or never asked. Nil until preprocessing
	// completes. DifferentFrom reads the path-level matrix through them.
	memberClass [][]int
	classDiff   []Tri
	numClasses  int
	// negClasses counts the distinct negations (ClientPath.negClass), and
	// bindClasses the distinct bind keys (ClientPath.bindClass).
	negClasses  int
	bindClasses int

	// Masked fields are hidden from the analysis (§5.2): no negation
	// disjuncts are built for them.
	masked []bool

	// sharedVars are symbolic variables shared between client and server
	// runs (the Constructed Symbolic Local State mode, §3.4): they are
	// exempt from alpha-renaming so that both sides refer to the same
	// world. The engine names symbolic globals "state_*", which are shared
	// by default.
	sharedVars map[string]bool

	// PreprocessStats records the work done by PreprocessParallelCtx.
	PreprocessStats PreprocessStats

	// Truncated reports that at least one client exploration hit its
	// MaxStates budget: the predicate under-approximates what clients can
	// send, so "no client generates it" verdicts built on it are suspect.
	Truncated bool
}

// PreprocessStats summarises predicate preprocessing.
type PreprocessStats struct {
	RawPaths       int // paths captured before deduplication
	DedupedPaths   int // paths dropped as duplicates
	Disjuncts      int // negation disjuncts kept
	OverlapDropped int // disjuncts discarded by the §4.1 overlap check
	DiffFromYes    int
	DiffFromNo     int
	DiffFromUnk    int
	SolverQueries  int
}

// DifferentFrom is the §3.3 matrix entry differentFrom[i][j][f]: TriYes
// when path i can place a value in field f that path j cannot, TriNo when
// provably not (i's field-f values are a subset of j's, always so for i ==
// j), and TriUnknown when either path's field f is masked or not simple,
// when the solver did not decide, or when preprocessing did not complete.
func (pc *ClientPredicate) DifferentFrom(i, j, f int) Tri {
	switch {
	case pc.classDiff == nil:
		return TriUnknown
	case i == j:
		return TriNo
	}
	a, b := pc.memberClass[i][f], pc.memberClass[j][f]
	if a < 0 || b < 0 {
		return TriUnknown
	}
	return pc.classDiff[a*pc.numClasses+b]
}

// ExtractOptions configure client predicate extraction.
type ExtractOptions struct {
	// Exec is passed to the symbolic engine for each client run. A nil
	// Exec.Solver runs the clients on Solver.Scoped(), so extraction,
	// preprocessing and (through RunCtx) the server phase share one verdict
	// cache, while the client runs' trees stay out of Solver's pointer
	// memo; a solver set here runs the clients on it instead.
	Exec symexec.Options
	// FieldNames names the message fields (optional, for reports).
	FieldNames []string
	// Mask lists field indices to hide from the analysis (§5.2).
	Mask []int
	// SkipPreprocess leaves bind/negation/differentFrom uncomputed; used by
	// tooling that only wants the raw paths.
	SkipPreprocess bool
	// SharedState lists extra variable names shared between client and
	// server runs (§3.4). Variables prefixed "state_" are always shared.
	SharedState []string
	// Solver answers preprocessing's queries and, unless Exec.Solver is
	// set, the client runs' branch queries; defaults to solver.Default().
	Solver *solver.Solver
	// Parallelism is the number of extraction workers: client programs run
	// concurrently (one goroutine per client, results merged in client
	// order, so path IDs are deterministic), each client's engine gets
	// Parallelism divided by the clients running at once (it overrides
	// Exec.Parallelism), and preprocessing fans the per-path work out over
	// Parallelism workers. Values <= 1 run one client at a time on one
	// engine worker.
	Parallelism int
}

// ClientProgram pairs a compiled client with a name for reports.
type ClientProgram struct {
	Name string
	Unit *lang.Unit
}

// ExtractClientPredicate runs every client program symbolically, captures
// all sent messages as client path predicates, deduplicates them and runs
// the §3.3 preprocessing.
func ExtractClientPredicate(clients []ClientProgram, opts ExtractOptions) (*ClientPredicate, error) {
	return ExtractClientPredicateCtx(context.Background(), clients, opts)
}

// ExtractClientPredicateCtx is ExtractClientPredicate under a context. A
// cancelled extraction returns (nil, ctx.Err()): a partially-captured client
// predicate under-approximates PC in a way no downstream consumer can
// compensate for, so there is no useful partial result to hand back.
func ExtractClientPredicateCtx(ctx context.Context, clients []ClientProgram, opts ExtractOptions) (*ClientPredicate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pc := &ClientPredicate{
		FieldNames: opts.FieldNames,
		MsgPrefix:  "m",
		sharedVars: map[string]bool{},
	}
	for _, v := range opts.SharedState {
		pc.sharedVars[v] = true
	}
	if opts.Solver == nil {
		opts.Solver = solver.Default()
	}
	if opts.Exec.Solver == nil {
		// Scoped: the client runs share the solver's cache and entries and
		// count into its counters, but their trees leave with the scope's
		// pointer memo instead of staying live in the run's until it ends.
		opts.Exec.Solver = opts.Solver.Scoped()
	}
	// Run every client model symbolically — concurrently when Parallelism
	// allows. Results land in a per-client slot and are merged below in
	// client order, so path IDs (and everything derived from them) are
	// identical whatever the worker count. The -j budget is split between
	// concurrently running clients and their engines' frontiers so a -j N
	// extraction runs ~N solver-bound goroutines rather than clients×N
	// (per-run results do not depend on the engine's worker count, so the
	// split is determinism-neutral).
	results := make([]*symexec.Result, len(clients))
	errs := make([]error, len(clients))
	concurrent := opts.Parallelism > 1 && len(clients) > 1
	execOpts := opts.Exec
	slots := opts.Parallelism
	if slots > len(clients) {
		slots = len(clients)
	}
	execOpts.Parallelism = opts.Parallelism
	if concurrent {
		execOpts.Parallelism = opts.Parallelism / slots
	}
	parallelFor(slots, len(clients), func(i int) {
		results[i], errs[i] = symexec.RunCtx(ctx, clients[i].Unit, execOpts)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	raw := 0
	for ci, cl := range clients {
		if errs[ci] != nil {
			return nil, fmt.Errorf("core: client %s: %w", cl.Name, errs[ci])
		}
		res := results[ci]
		if res.Stats.Truncated {
			pc.Truncated = true
		}
		for _, st := range res.States {
			if st.Status == symexec.StatusError {
				return nil, fmt.Errorf("core: client %s: path error: %v", cl.Name, st.Err)
			}
			for _, sent := range st.Sent {
				raw++
				key := sentKey(sent)
				if seen[key] {
					continue
				}
				seen[key] = true
				cp := &ClientPath{
					ID:          len(pc.Paths),
					Origin:      cl.Name,
					Fields:      sent.Fields,
					Constraints: sent.Path,
					negation:    expr.False(),
				}
				if pc.NumFields == 0 {
					pc.NumFields = len(sent.Fields)
				} else if pc.NumFields != len(sent.Fields) {
					return nil, fmt.Errorf("core: client %s sends %d fields, others send %d",
						cl.Name, len(sent.Fields), pc.NumFields)
				}
				pc.Paths = append(pc.Paths, cp)
			}
		}
	}
	if len(pc.Paths) == 0 {
		return nil, fmt.Errorf("core: no client messages captured")
	}
	pc.PreprocessStats.RawPaths = raw
	pc.PreprocessStats.DedupedPaths = raw - len(pc.Paths)
	pc.masked = make([]bool, pc.NumFields)
	for _, f := range opts.Mask {
		if f >= 0 && f < pc.NumFields {
			pc.masked[f] = true
		}
	}
	if !opts.SkipPreprocess {
		pc.PreprocessParallelCtx(ctx, opts.Solver, opts.Parallelism)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// sentKey is a structural fingerprint used for deduplication.
func sentKey(m symexec.SentMessage) string {
	var b strings.Builder
	for _, f := range m.Fields {
		b.WriteString(f.String())
		b.WriteByte('|')
	}
	b.WriteByte('#')
	// Constraint order is deterministic (program order), but sort anyway so
	// semantically identical paths with reordered conjuncts dedupe.
	cs := make([]string, len(m.Path))
	for i, c := range m.Path {
		cs[i] = c.String()
	}
	sort.Strings(cs)
	for _, c := range cs {
		b.WriteString(c)
		b.WriteByte('&')
	}
	return b.String()
}

// msgVar returns the server-side message variable for field f. After
// preprocessing has started, fields the clients send share one node each:
// expressions are immutable, and a fresh node per bind and per negation
// disjunct kept up to two copies per path and field live through the
// server phase (0.36 MB at its start on the rich FSP corpus).
func (pc *ClientPredicate) msgVar(f int) *expr.Expr {
	if f < len(pc.msgVars) {
		return pc.msgVars[f]
	}
	return expr.Var(pc.MsgVarName(f))
}

// MsgVarName returns the server-side message variable name for field f.
func (pc *ClientPredicate) MsgVarName(f int) string {
	return pc.MsgPrefix + strconv.Itoa(f)
}

// FieldIndexOfVar parses a message variable name back to its field index,
// returning -1 for non-message variables.
func (pc *ClientPredicate) FieldIndexOfVar(name string) int {
	if !strings.HasPrefix(name, pc.MsgPrefix) {
		return -1
	}
	n, err := strconv.Atoi(name[len(pc.MsgPrefix):])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// PreprocessParallelCtx builds, for every client path, the field
// classification, the negation disjuncts (with the §4.1 overlap check), and
// the differentFrom matrix (§3.3), and readies the path's binding
// constraints, which Bind builds on first read. The per-path work (field
// classification, negation with its overlap solver queries, bind keys) fans
// out over the given number of workers. Paths are independent, so the
// produced artifacts do not depend on the worker count; per-path counters
// are summed in path order, keeping PreprocessStats deterministic.
// Numbering the negations and the differentFrom matrix stay sequential: the
// matrix asks one query per member-class pair (84 on the rich 256-path FSP
// corpus), which is too little work to fan out.
//
// Cancellation skips the remaining per-path work and leaves the
// differentFrom matrix unset, so every entry reads TriUnknown (the
// conservative don't-know). A cancelled preprocessing run leaves the
// predicate HALF-BUILT — missing negation disjuncts read as "abandoned" and
// silently suppress Trojan classes — so callers must check ctx.Err()
// afterwards and refuse to analyse with it (RunCtx and
// ExtractClientPredicateCtx both do).
func (pc *ClientPredicate) PreprocessParallelCtx(ctx context.Context, s *solver.Solver, workers int) {
	if ctx == nil {
		ctx = context.Background()
	}
	pc.msgVars = make([]*expr.Expr, pc.NumFields)
	for f := range pc.msgVars {
		pc.msgVars[f] = expr.Var(pc.MsgVarName(f))
	}
	// The per-path variable lists serve preprocessing only; drop them on
	// the way out so they do not stay live through the server phase.
	defer func() {
		for _, cp := range pc.Paths {
			cp.kvars = nil
		}
	}()
	stats := make([]PreprocessStats, len(pc.Paths))
	parallelFor(workers, len(pc.Paths), func(i int) {
		if ctx.Err() != nil {
			return
		}
		cp := pc.Paths[i]
		cp.pc = pc
		cp.kvars = make([][]string, len(cp.Constraints))
		for k, c := range cp.Constraints {
			cp.kvars[k] = expr.Vars(c)
		}
		pc.classifyFields(cp)
		pc.buildNegation(ctx, cp, s, &stats[i])
		pc.buildBindKey(cp)
	})
	for _, st := range stats {
		pc.PreprocessStats.Disjuncts += st.Disjuncts
		pc.PreprocessStats.OverlapDropped += st.OverlapDropped
		pc.PreprocessStats.SolverQueries += st.SolverQueries
	}
	if ctx.Err() != nil {
		// The per-path work stopped early, so field classes and negations
		// may be missing: build no classes, no member predicates and no
		// matrix.
		return
	}
	pc.numberClasses()
	pc.buildDifferentFrom(ctx, s)
}

// numberClasses gives every path its negation class and its bind class in
// path order, so the IDs do not depend on how the per-path work was
// scheduled.
func (pc *ClientPredicate) numberClasses() {
	firsts := map[uint64][]*ClientPath{} // first path of each class, by hash
	binds := map[string]int{}
	pc.negClasses = 0
	for _, cp := range pc.Paths {
		cls, ok := binds[cp.bindKey]
		if !ok {
			cls = len(binds)
			binds[cp.bindKey] = cls
		}
		cp.bindClass = cls
		h := cp.negation.Hash()
		cp.negClass = -1
		for _, first := range firsts[h] {
			if expr.Equal(first.negation, cp.negation) {
				cp.negClass = first.negClass
				break
			}
		}
		if cp.negClass < 0 {
			cp.negClass = pc.negClasses
			pc.negClasses++
			firsts[h] = append(firsts[h], cp)
		}
	}
	pc.bindClasses = len(binds)
}

// buildBindKey computes the canonical message-relevant signature. The
// relevant constraint set is the transitive closure of the constraints
// sharing variables with the field expressions; constraints on local-only
// inputs (flags, normalisation choices) are excluded, because they are
// independently satisfiable and cannot affect sat(pathS ∧ bind).
func (pc *ClientPredicate) buildBindKey(cp *ClientPath) {
	relevant := map[string]bool{}
	for _, e := range cp.Fields {
		expr.CollectVars(e, relevant)
	}
	isRelevant := func(v string) bool { return relevant[v] }
	// Transitive closure over constraints that share variables.
	for changed := true; changed; {
		changed = false
		for _, vs := range cp.kvars {
			if !slices.ContainsFunc(vs, isRelevant) {
				continue
			}
			for _, v := range vs {
				if !relevant[v] {
					relevant[v] = true
					changed = true
				}
			}
		}
	}
	// Canonical renaming in encounter order (shared state keeps names).
	canon := map[string]string{}
	next := 0
	ren := func(n string) string {
		if pc.isShared(n) {
			return n
		}
		if c, ok := canon[n]; ok {
			return c
		}
		c := "k" + strconv.Itoa(next)
		next++
		canon[n] = c
		return c
	}
	var b strings.Builder
	for _, e := range cp.Fields {
		b.WriteString(expr.RenameVars(e, ren).String())
		b.WriteByte('|')
	}
	var ks []string
	for i, k := range cp.Constraints {
		if vs := cp.kvars[i]; len(vs) == 0 || slices.ContainsFunc(vs, isRelevant) {
			ks = append(ks, expr.RenameVars(k, ren).String())
		}
	}
	sort.Strings(ks)
	for _, k := range ks {
		b.WriteString(k)
		b.WriteByte('&')
	}
	cp.bindKey = b.String()
}

// isShared reports whether a variable is shared world state (not renamed).
func (pc *ClientPredicate) isShared(name string) bool {
	return strings.HasPrefix(name, "state_") || pc.sharedVars[name]
}

// buildBind builds bind_i = { m_f == E'_f } ∪ K' with inputs renamed c{i}_
// (shared state variables keep their names).
func (pc *ClientPredicate) buildBind(cp *ClientPath) []*expr.Expr {
	prefix := "c" + strconv.Itoa(cp.ID) + "_"
	ren := func(n string) string {
		if pc.isShared(n) {
			return n
		}
		return prefix + n
	}
	bind := make([]*expr.Expr, 0, len(cp.Fields)+len(cp.Constraints))
	for f, e := range cp.Fields {
		bind = append(bind, expr.Eq(pc.msgVar(f), expr.RenameVars(e, ren)))
	}
	for _, k := range cp.Constraints {
		bind = append(bind, expr.RenameVars(k, ren))
	}
	return bind
}

// constraintsMentioning returns, in path order, the constraints that
// mention any of the sorted variable names vars.
func (cp *ClientPath) constraintsMentioning(vars []string) []*expr.Expr {
	var out []*expr.Expr
	for i, k := range cp.Constraints {
		if sharesName(cp.kvars[i], vars) {
			out = append(out, k)
		}
	}
	return out
}

// sharesName reports whether the sorted name lists a and b have a name in
// common.
func sharesName(a, b []string) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// classifyFields fills fieldKind and simpleField.
func (pc *ClientPredicate) classifyFields(cp *ClientPath) {
	cp.fieldKind = make([]FieldKind, len(cp.Fields))
	cp.simpleField = make([]bool, len(cp.Fields))
	// Count the fields using each input var.
	fvars := make([][]string, len(cp.Fields))
	varFields := map[string]int{}
	for f, e := range cp.Fields {
		fvars[f] = expr.Vars(e)
		for _, v := range fvars[f] {
			varFields[v]++
		}
	}
	for f, e := range cp.Fields {
		switch {
		case e.IsConst():
			cp.fieldKind[f] = FieldConst
			cp.simpleField[f] = true
			continue
		case e.Kind == expr.KVar && pc.isShared(e.Name):
			cp.fieldKind[f] = FieldState
			continue
		case e.Kind == expr.KVar:
			cp.fieldKind[f] = FieldVar
		default:
			cp.fieldKind[f] = FieldExpr
		}
		if !slices.ContainsFunc(cp.kvars, func(vs []string) bool { return sharesName(vs, fvars[f]) }) {
			cp.fieldKind[f] = FieldFree
			continue
		}
		// simple: pure var, used only in this field, and all its constraints
		// mention only this var.
		if e.Kind == expr.KVar && varFields[e.Name] == 1 {
			cp.simpleField[f] = !slices.ContainsFunc(cp.kvars, func(vs []string) bool {
				return len(vs) > 1 && slices.Contains(vs, e.Name)
			})
		}
	}
}

// buildNegation constructs the negate(pathC) disjuncts per §3.2 and applies
// the §4.1 overlap check: any disjunct sharing a solution with the original
// path predicate is discarded, keeping the negation a strict
// under-approximation.
func (pc *ClientPredicate) buildNegation(ctx context.Context, cp *ClientPath, s *solver.Solver, stats *PreprocessStats) {
	cp.negation = expr.False()
	for f, e := range cp.Fields {
		if pc.masked[f] {
			continue
		}
		m := pc.msgVar(f)
		var d *expr.Expr
		switch cp.fieldKind[f] {
		case FieldConst:
			d = expr.Ne(m, e)
		case FieldState:
			// Shared symbolic local state (§3.4): within the analysed
			// world the field must equal the shared value, so differing
			// from it is an exact negation.
			d = expr.Ne(m, e)
		case FieldFree:
			continue // abandoned: unconstrained symbolic data
		case FieldVar:
			ks := cp.constraintsMentioning([]string{e.Name})
			if cp.simpleField[f] {
				// Exact: substitute m_f for the var in ¬K.
				neg := expr.Not(expr.AndAll(ks))
				d = expr.Substitute(neg, map[string]*expr.Expr{e.Name: m})
			} else {
				d = pc.exprFieldNegation(cp, f, e, ks)
			}
		case FieldExpr:
			ks := cp.constraintsMentioning(expr.Vars(e))
			if len(ks) == 0 {
				continue // abandoned
			}
			d = pc.exprFieldNegation(cp, f, e, ks)
		}
		if d == nil || d.IsFalse() {
			continue
		}
		// §4.1 overlap check: discard the disjunct if a message generatable
		// by this client path also satisfies it. Exact negations (constants,
		// shared state, simple vars) cannot overlap and skip the query.
		if cp.fieldKind[f] != FieldConst && cp.fieldKind[f] != FieldState &&
			!(cp.fieldKind[f] == FieldVar && cp.simpleField[f]) {
			stats.SolverQueries++
			q := append(append([]*expr.Expr{}, cp.Bind()...), d)
			if res, _ := s.CheckCtx(ctx, q); res != solver.Unsat {
				stats.OverlapDropped++
				continue
			}
		}
		cp.negation = expr.Or(cp.negation, d)
		stats.Disjuncts++
	}
}

// exprFieldNegation builds m_f == E(λ̃) ∧ ¬K(λ̃) with λ̃ fresh (n{i}_{f}_
// prefix), the §3.2 rule for expression fields such as checksums.
func (pc *ClientPredicate) exprFieldNegation(cp *ClientPath, f int, e *expr.Expr, ks []*expr.Expr) *expr.Expr {
	prefix := "n" + strconv.Itoa(cp.ID) + "_" + strconv.Itoa(f) + "_"
	ren := func(n string) string {
		if pc.isShared(n) {
			return n
		}
		return prefix + n
	}
	eq := expr.Eq(pc.msgVar(f), expr.RenameVars(e, ren))
	neg := expr.Not(expr.AndAll(ks))
	return expr.And(eq, expr.RenameVars(neg, ren))
}

// memberVar is the free variable of the member predicates.
const memberVar = "df_v"

// refutedAt reports that client path i cannot generate msg: one of its
// member predicates evaluates false at the message's value for that field.
// This is exact: a model of bind_i ∧ m == msg gives field f's client input
// the value msg[f] and satisfies the constraints members[i][f] encodes, so a
// false member leaves no model. An evaluation error refutes nothing. env is
// scratch space the caller reuses across paths.
func (pc *ClientPredicate) refutedAt(i int, msg []int64, env expr.Env) bool {
	if i >= len(pc.members) {
		return false // preprocessing skipped or cancelled: no members
	}
	for f, m := range pc.members[i] {
		if m == nil {
			continue
		}
		env[memberVar] = msg[f]
		if ok, err := expr.EvalBool(m, env); err == nil && !ok {
			return true
		}
	}
	return false
}

// fieldValueMember returns a membership predicate for "v is a possible value
// of field f in path cp", valid only for simple fields.
func (cp *ClientPath) fieldValueMember(f int, v *expr.Expr) *expr.Expr {
	e := cp.Fields[f]
	if e.IsConst() {
		return expr.Eq(v, e)
	}
	// simple var: substitute v into its constraints.
	ks := cp.constraintsMentioning([]string{e.Name})
	return expr.Substitute(expr.AndAll(ks), map[string]*expr.Expr{e.Name: v})
}

// buildDifferentFrom computes the §3.3 matrix for simple fields: the paper
// applies the field-level negate operator between every pair of client path
// predicates. A member predicate renders a value set over memberVar, so
// paths whose renderings are equal place the same values, and large corpora
// repeat a few value sets many times (every flag combination of the same
// utility). Each distinct rendering is one member class, and the matrix is
// kept per class pair: a pair is solved once, when two distinct paths first
// hold it at one field, and never when no field brings it together. The
// DiffFrom* tallies still count ordered path pairs per field, from the
// class sizes at that field.
func (pc *ClientPredicate) buildDifferentFrom(ctx context.Context, s *solver.Solver) {
	n := len(pc.Paths)
	v := expr.Var(memberVar)
	ids := map[string]int{}
	var classes []*expr.Expr // member predicate of each class
	pc.members = make([][]*expr.Expr, n)
	pc.memberClass = make([][]int, n)
	for i, p := range pc.Paths {
		pc.members[i] = make([]*expr.Expr, pc.NumFields)
		pc.memberClass[i] = make([]int, pc.NumFields)
		for f := range pc.NumFields {
			pc.memberClass[i][f] = -1
			if pc.masked[f] || !p.simpleField[f] {
				continue
			}
			m := p.fieldValueMember(f, v)
			key := m.String()
			c, ok := ids[key]
			if !ok {
				c = len(classes)
				ids[key] = c
				classes = append(classes, m)
			}
			pc.members[i][f], pc.memberClass[i][f] = m, c
		}
	}
	k := len(classes)
	diff := make([]Tri, k*k)
	solved := make([]bool, k*k)
	size := make([]int, k) // paths holding each class at the current field
	var tally [3]int       // ordered path pairs per verdict, indexed by Tri
	for f := range pc.NumFields {
		var at []int // classes present at field f, in path order
		simple := 0  // paths with a member at field f
		for i := range pc.Paths {
			if c := pc.memberClass[i][f]; c >= 0 {
				if size[c] == 0 {
					at = append(at, c)
				}
				size[c]++
				simple++
			}
		}
		tally[TriNo] += n                                // i == j
		tally[TriUnknown] += n*(n-1) - simple*(simple-1) // a nil member
		for _, a := range at {
			for _, b := range at {
				pairs := size[a] * size[b]
				if a == b {
					pairs -= size[a] // i != j
				}
				if pairs == 0 {
					continue
				}
				ab := a*k + b
				if !solved[ab] {
					solved[ab] = true
					// ∃v: member_a(v) ∧ ¬member_b(v)? Unknown stays TriUnknown.
					pc.PreprocessStats.SolverQueries++
					switch res, _ := s.CheckCtx(ctx, []*expr.Expr{classes[a], expr.Not(classes[b])}); res {
					case solver.Sat:
						diff[ab] = TriYes
					case solver.Unsat:
						diff[ab] = TriNo
					}
				}
				tally[diff[ab]] += pairs
			}
		}
		for _, c := range at {
			size[c] = 0
		}
	}
	pc.PreprocessStats.DiffFromYes += tally[TriYes]
	pc.PreprocessStats.DiffFromNo += tally[TriNo]
	pc.PreprocessStats.DiffFromUnk += tally[TriUnknown]
	if ctx.Err() == nil {
		// A cancel turns the remaining queries Unknown; the matrix then
		// stays unset rather than half-decided.
		pc.classDiff, pc.numClasses = diff, k
	}
}
