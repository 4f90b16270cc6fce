package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/expr"
	"achilles/internal/lang"
	"achilles/internal/solver"
	"achilles/internal/symexec"
)

// Mode selects which of the §3.3 optimisations are active; the §6.4 ablation
// compares them.
type Mode int

// Analysis modes.
const (
	// ModeOptimized is full Achilles: per-state live client sets,
	// differentFrom bulk dropping, and incremental Trojan checks that prune
	// server states which no Trojan message can reach.
	ModeOptimized Mode = iota
	// ModeNoDifferentFrom disables the differentFrom bulk drop; every live
	// client path is re-checked with the solver individually.
	ModeNoDifferentFrom
	// ModeAPosteriori mirrors the paper's non-optimised baseline: plain
	// symbolic execution of the server first, then symbolic constraint
	// differencing over the accepting paths afterwards.
	ModeAPosteriori
)

func (m Mode) String() string {
	switch m {
	case ModeOptimized:
		return "optimized"
	case ModeNoDifferentFrom:
		return "no-differentFrom"
	case ModeAPosteriori:
		return "a-posteriori"
	}
	return "mode?"
}

// AnalysisOptions configure the server phase.
type AnalysisOptions struct {
	Mode Mode
	// Exec configures the symbolic engine for the server run.
	Exec symexec.Options
	// Solver answers every phase of a run — client extraction,
	// preprocessing, the engine and the Trojan checks — on one scope of it
	// (see RunCtx), so one verdict cache serves them all; defaults to
	// solver.Default().
	Solver *solver.Solver
	// SkipConcreteVerification disables the concrete replay of each Trojan
	// example against the server model. It is forced on when the server
	// runs with symbolic local state, which cannot be replayed concretely.
	SkipConcreteVerification bool
	// Parallelism is the number of analysis workers (the -j knob): it sets
	// the engine's frontier workers (it overrides Exec.Parallelism), the
	// concurrent Trojan checks and — via Run — client predicate extraction
	// and preprocessing. Values <= 1 run one worker at each stage. The
	// reported Trojan class set is identical for every value, and reports
	// are merged in fork-tree order, so the report list — indices and
	// ServerStateIDs included — does not depend on it. Two caveats: the
	// *order* of LiveTrace entries (not their multiset) is
	// scheduling-dependent at Parallelism > 1, and a run truncated by
	// Exec.MaxStates keeps a scheduling-dependent subset at Parallelism > 1
	// — see symexec.Options.Parallelism.
	Parallelism int

	// Observer streams phase transitions, Trojan reports (as they are
	// confirmed) and periodic progress to the caller; see Observer. The
	// zero value observes nothing.
	Observer Observer

	// FirstTrojan stops the entire fan-out — engine frontier, in-flight
	// solver queries, concurrent Trojan checks — as soon as the first
	// Trojan report is confirmed. The result then carries at least one
	// report (more can slip in from concurrent workers before the stop
	// lands) and is marked Truncated, because the exploration did not
	// finish. A real speedup on deep targets where the full walk is
	// expensive but the first vulnerability surfaces early.
	FirstTrojan bool

	// ProgressInterval paces Observer.OnProgress during the server phase;
	// zero means 200ms. Ignored when OnProgress is nil.
	ProgressInterval time.Duration
}

// TrojanReport describes one discovered Trojan message class: an accepting
// server path that admits messages no client path can generate.
type TrojanReport struct {
	Index         int
	ServerStateID int
	PathLen       int           // branch decisions on the accepting path
	ServerPath    []*expr.Expr  // the accepting path constraints
	Witness       *expr.Expr    // symbolic Trojan class (pathS ∧ ⋀ negate(pathC))
	Concrete      []int64       // example Trojan message
	StateEnv      expr.Env      // concrete world for symbolic local state (§3.4)
	LiveClients   []int         // client paths still triggering the state
	Elapsed       time.Duration // since analysis start

	// VerifiedAccept: the concrete example was replayed against the server
	// model and accepted. VerifiedNotClient: no client path predicate is
	// satisfiable with the concrete example (the §4 soundness guard).
	VerifiedAccept    bool
	VerifiedNotClient bool
}

// TimelinePoint records cumulative discovery over time (Figure 10).
type TimelinePoint struct {
	Elapsed time.Duration
	Found   int
}

// LivePoint records the live client-path count per server path length
// (Figure 11).
type LivePoint struct {
	PathLen int
	Live    int
}

// Result is the outcome of a server analysis.
type Result struct {
	// Trojans lists the reports in the fork-tree (Trail) order of their
	// accepting states: Index is the position in this list, ServerStateID
	// the state's position among all the run's terminal states.
	Trojans   []TrojanReport
	Timeline  []TimelinePoint
	LiveTrace []LivePoint

	AcceptingStates int // accepting states reached during exploration
	PrunedStates    int // states pruned because no Trojan could reach them
	FilteredReports int // accepting states whose Trojan query was unsat/unknown
	BulkDrops       int // client paths dropped via differentFrom (no solver call)
	BindKeyHits     int // triggerability verdicts shared via canonical bind keys
	WitnessHits     int // live-set and Trojan-possible queries answered by a parent model
	Duration        time.Duration
	EngineStats     symexec.Stats
	SolverStats     solver.Stats // the run's own solver work (see Counters)
}

// Truncated reports whether the server exploration hit Exec.MaxStates with
// states left unexplored. A truncated analysis yields a *partial* Trojan
// class set: consumers (campaign manifests, the golden gate) must flag the
// run rather than pin its corpus as the complete result.
func (r *Result) Truncated() bool { return r.EngineStats.Truncated }

// liveData is the per-state analysis payload: the IDs of client path
// predicates that can still trigger the state, plus the Sat models that
// answered the state's queries. wit holds, per bind class, a model of
// path ∧ bind (nil throughout when no class has one), and trojan is a model
// of path ∧ ⋀ negate(live); a model is nil when unknown. Models are
// read-only once stored, so clones share them; onBranch replaces wit with a
// fresh slice instead of writing to a shared one.
type liveData struct {
	live   []int
	wit    []expr.Env
	trojan expr.Env
}

// CloneData implements symexec.StateData.
func (d *liveData) CloneData() symexec.StateData {
	return &liveData{live: append([]int{}, d.live...), wit: d.wit, trojan: d.trojan}
}

// pendingReport is a Trojan report gathered during (possibly concurrent)
// exploration: everything is computed at accept time except the final Index
// and ServerStateID, which are assigned by finalize once the merge order of
// the run is known.
type pendingReport struct {
	st                *symexec.State
	witness           *expr.Expr
	concrete          []int64
	stateEnv          expr.Env
	live              []int
	elapsed           time.Duration
	verifiedAccept    bool
	verifiedNotClient bool
}

// analysis carries the run context. With opts.Parallelism > 1 the engine
// hooks run concurrently: mu guards the shared result fields (counters, live
// trace, pending reports); everything else the hooks touch is either
// per-state (liveData) or concurrency-safe (the solver).
type analysis struct {
	server *lang.Unit
	pc     *ClientPredicate
	opts   AnalysisOptions
	sol    *solver.Solver
	res    *Result
	start  time.Time

	// runCtx is the exploration's working context: the caller's ctx plus
	// the internal first-trojan stop. Every solver query and the engine
	// frontier run under it, so one cancel aborts the whole fan-out.
	runCtx context.Context
	stop   context.CancelFunc

	// observing gates the live-counter and streamed-report bookkeeping so
	// observer-less runs (campaign jobs, v1 Run, benchmarks) pay nothing
	// for it on the hot branch path.
	observing bool
	// Live counters for progress reporting (atomic: hooks run concurrently).
	branches atomic.Int64 // branch constraints processed
	maxDepth atomic.Int64 // deepest branch decision seen
	found    atomic.Int64 // Trojan reports confirmed

	witnesses atomic.Int64 // queries answered by a parent model (Result.WitnessHits)

	mu      sync.Mutex
	pending []pendingReport
}

// analyzeServerCtx runs the Achilles server phase against a compiled server
// model and a preprocessed client predicate, under a context, on the run's
// solver scope (RunCtx). Cancellation
// (or a deadline) aborts the exploration cleanly mid-frontier: the engine
// stops forking, in-flight solver queries return Unknown, reports whose
// verification the cancellation degraded are dropped rather than emitted,
// and the partial result — marked Truncated — is returned together with
// ctx.Err(). An opts.FirstTrojan early exit uses the same stop path but is
// not an error: the result is Truncated and err is nil.
func analyzeServerCtx(ctx context.Context, server *lang.Unit, pc *ClientPredicate, opts AnalysisOptions) (*Result, error) {
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	a := &analysis{
		server:    server,
		pc:        pc,
		opts:      opts,
		sol:       opts.Solver,
		res:       &Result{},
		start:     time.Now(),
		runCtx:    runCtx,
		stop:      stop,
		observing: opts.Observer.OnProgress != nil || opts.Observer.OnTrojan != nil,
	}
	stopProgress := func() {}
	if opts.Observer.OnProgress != nil {
		progDone := make(chan struct{})
		progExited := make(chan struct{})
		go func() {
			defer close(progExited)
			a.progressLoop(progDone)
		}()
		// Synchronous shutdown: no OnProgress callback may outlive this
		// function — callers (sessions) close their event sinks right after.
		stopProgress = sync.OnceFunc(func() {
			close(progDone)
			<-progExited
		})
		defer stopProgress()
	}
	execOpts := opts.Exec
	execOpts.Solver = a.sol
	execOpts.Parallelism = opts.Parallelism
	switch opts.Mode {
	case ModeAPosteriori:
		// Phase A: plain symbolic execution (classic S2E run).
		engRes, err := symexec.RunCtx(runCtx, server, execOpts)
		if err != nil {
			return nil, err
		}
		a.res.EngineStats = engRes.Stats
		// Phase B: symbolic constraint differencing over accepting paths,
		// fanned out over the analysis workers (each path is independent).
		accepted := engRes.ByStatus(symexec.StatusAccepted)
		parallelFor(opts.Parallelism, len(accepted), func(i int) {
			if runCtx.Err() != nil {
				return
			}
			st := accepted[i]
			a.mu.Lock()
			a.res.AcceptingStates++
			a.mu.Unlock()
			a.reportIfTrojan(st, a.liveFromScratch(st))
		})
		// A first-trojan stop (or a cancel) during phase B leaves accepting
		// paths undifferenced: the class set is partial even though the
		// engine walk itself completed.
		if runCtx.Err() != nil {
			a.res.EngineStats.Truncated = true
		}
	default:
		execOpts.Hooks = symexec.Hooks{
			OnBranch: a.onBranch,
			OnAccept: a.onAccept,
		}
		engRes, err := symexec.RunCtx(runCtx, server, execOpts)
		if err != nil {
			return nil, err
		}
		a.res.EngineStats = engRes.Stats
		a.res.PrunedStates = len(engRes.ByStatus(symexec.StatusPruned))
		// A stop that lands as the engine drains its last state can leave the
		// walk looking complete; the result of a stopped run is partial by
		// contract (FirstTrojan in particular promises Truncated), so force
		// the flag whenever the working context fired.
		if runCtx.Err() != nil {
			a.res.EngineStats.Truncated = true
		}
	}
	a.finalize()
	a.res.WitnessHits = int(a.witnesses.Load())
	a.res.Duration = time.Since(a.start)
	a.res.SolverStats = a.sol.Stats()
	if opts.Observer.OnProgress != nil {
		// Final snapshot with the completed counters. The loop stops first,
		// so a tick that read the counters mid-run cannot land after it.
		stopProgress()
		a.emitProgress()
	}
	// Only the caller's cancellation is an error; the internal first-trojan
	// stop is a successful early exit (the Truncated flag still records that
	// the exploration was cut short).
	return a.res, ctx.Err()
}

// progressLoop emits periodic Progress snapshots until the analysis ends.
func (a *analysis) progressLoop(done <-chan struct{}) {
	interval := a.opts.ProgressInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			a.emitProgress()
		}
	}
}

// emitProgress snapshots the live counters into one Progress callback.
func (a *analysis) emitProgress() {
	st := a.sol.Stats()
	rate := 0.0
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		rate = float64(st.CacheHits) / float64(lookups)
	}
	a.opts.Observer.OnProgress(Progress{
		Phase:          PhaseServer,
		Elapsed:        time.Since(a.start),
		StatesExplored: int(a.branches.Load()),
		FrontierDepth:  int(a.maxDepth.Load()),
		Trojans:        int(a.found.Load()),
		SolverQueries:  st.Queries,
		CacheHitRate:   rate,
	})
}

// finalize turns the pending reports into the public report list. Reports
// are ordered by the accepting state's fork-tree trail — the engine's result
// order, the same at every worker count and, with one worker, also the
// discovery order — and the discovery timeline is ordered by elapsed time.
// The engine has renumbered each state's ID to its trail position, which
// is the ServerStateID reported here.
func (a *analysis) finalize() {
	sort.SliceStable(a.pending, func(i, j int) bool {
		return a.pending[i].st.Trail < a.pending[j].st.Trail
	})
	for i, p := range a.pending {
		a.res.Trojans = append(a.res.Trojans, TrojanReport{
			Index:             i,
			ServerStateID:     p.st.ID,
			PathLen:           len(p.st.Path),
			ServerPath:        append([]*expr.Expr{}, p.st.Path...),
			Witness:           p.witness,
			Concrete:          p.concrete,
			StateEnv:          p.stateEnv,
			LiveClients:       p.live,
			Elapsed:           p.elapsed,
			VerifiedAccept:    p.verifiedAccept,
			VerifiedNotClient: p.verifiedNotClient,
		})
	}
	elapsed := make([]time.Duration, len(a.pending))
	for i, p := range a.pending {
		elapsed[i] = p.elapsed
	}
	sort.Slice(elapsed, func(i, j int) bool { return elapsed[i] < elapsed[j] })
	for i, d := range elapsed {
		a.res.Timeline = append(a.res.Timeline, TimelinePoint{Elapsed: d, Found: i + 1})
	}
	a.pending = nil
}

// ensureData lazily attaches the live set (all client paths) to a state.
func (a *analysis) ensureData(st *symexec.State) *liveData {
	if d, ok := st.Data.(*liveData); ok {
		return d
	}
	d := &liveData{live: make([]int, len(a.pc.Paths))}
	for i := range a.pc.Paths {
		d.live[i] = i
	}
	st.Data = d
	return d
}

// witnessHook, when set by a test, observes every query a parent model
// answered: the state's path, the query's suffix and the model.
var witnessHook func(path, suffix []*expr.Expr, model expr.Env)

// witnessed reports whether m, a model of path ∧ suffix before the state's
// path gained cond (nil when none is known), satisfies cond too: it is then a
// model of the extended query, which the solver cannot answer Unsat. An
// unbound variable or a division by zero falls back to the solver.
func (a *analysis) witnessed(st *symexec.State, m expr.Env, cond *expr.Expr, suffix []*expr.Expr) bool {
	if m == nil {
		return false
	}
	if v, err := expr.EvalBool(cond, m); err != nil || !v {
		return false
	}
	a.witnesses.Add(1)
	if witnessHook != nil {
		witnessHook(st.Path, suffix, m)
	}
	return true
}

// triggerable asks whether client path i can still trigger the state's path
// and returns a model of path ∧ bind when one is known. m is the parent's
// model for i's bind key, cond the condition the path gained since (both nil
// without a parent state). The query reuses the state's solver prefix.
func (a *analysis) triggerable(st *symexec.State, i int, m expr.Env, cond *expr.Expr) (bool, expr.Env) {
	bind := a.pc.Paths[i].Bind()
	if a.witnessed(st, m, cond, bind) {
		return true, m
	}
	res, model := a.sol.CheckPrefixCtx(a.runCtx, st.SolverPrefix(), bind...)
	return res != solver.Unsat, model
}

// liveFromScratch computes the live set for a path with no incremental
// state (a-posteriori mode).
func (a *analysis) liveFromScratch(st *symexec.State) []int {
	var live []int
	var buf [64]classVerdict
	verdicts := a.verdicts(buf[:0])
	for i, cp := range a.pc.Paths {
		v := &verdicts[cp.bindClass]
		if *v == unasked {
			ok, _ := a.triggerable(st, i, nil, nil)
			*v = verdictOf(ok)
		}
		if *v == triggers {
			live = append(live, i)
		}
	}
	return live
}

// classVerdict is one bind class's triggerable verdict on a state.
type classVerdict int8

const (
	unasked classVerdict = iota
	triggers
	cannot
)

func verdictOf(ok bool) classVerdict {
	if ok {
		return triggers
	}
	return cannot
}

// verdicts returns one unasked verdict per bind class, in buf when it has
// room.
func (a *analysis) verdicts(buf []classVerdict) []classVerdict {
	n := a.pc.bindClasses
	if cap(buf) < n {
		return make([]classVerdict, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// singleFieldOf returns the message field index when every variable of cond
// belongs to exactly one message field that clients send, else -1. Used to
// gate the differentFrom bulk drop.
func (a *analysis) singleFieldOf(cond *expr.Expr) int {
	field := -1
	for _, v := range expr.Vars(cond) {
		f := a.pc.FieldIndexOfVar(v)
		if f < 0 || f >= a.pc.NumFields {
			return -1 // touches non-message state or a field no client sends
		}
		if field == -1 {
			field = f
		} else if field != f {
			return -1
		}
	}
	return field
}

// tiesField reports whether a constraint of path mentions message field f
// together with any other variable.
func (a *analysis) tiesField(path []*expr.Expr, f int) bool {
	name := a.pc.MsgVarName(f)
	vars := map[string]bool{}
	for _, c := range path {
		clear(vars)
		expr.CollectVars(c, vars)
		if vars[name] && len(vars) > 1 {
			return true
		}
	}
	return false
}

// onBranch updates the live set and prunes states that no Trojan can reach.
// It runs concurrently when the engine explores in parallel: all solver work
// happens on the caller's state, and the shared counters and trace are
// updated under the analysis lock in one batch at the end.
func (a *analysis) onBranch(st *symexec.State, cond *expr.Expr) bool {
	if a.observing {
		a.branches.Add(1)
		depth := int64(len(st.Path))
		for {
			cur := a.maxDepth.Load()
			if depth <= cur || a.maxDepth.CompareAndSwap(cur, depth) {
				break
			}
		}
	}
	d := a.ensureData(st)
	// differentFrom bulk drop (§3.3): when the new constraint touches a
	// single independent field f and pathC_i was already dropped by it,
	// every pathC_j with no extra values on field f (differentFrom = No)
	// must die with it — without consulting the solver. That holds only
	// while no constraint of the path ties m_f to another variable; the
	// first drop that would fire checks this, and a tie sends every path to
	// the solver (DESIGN.md, Phase 2).
	bulkField := -1
	if a.opts.Mode == ModeOptimized {
		bulkField = a.singleFieldOf(cond)
	}
	tieChecked := false
	// Drop client paths that can no longer trigger this server path. Paths
	// with the same canonical message-relevant signature share one solver
	// verdict (flag-style variants admit exactly the same messages).
	var kept, dropped []int
	var bulkDrops, bindKeyHits int
	var buf [64]classVerdict
	verdicts := a.verdicts(buf[:0])
	var wit []expr.Env
	for _, j := range d.live {
		bulk := false
		if bulkField >= 0 {
			for _, i := range dropped {
				if a.pc.DifferentFrom(j, i, bulkField) == TriNo {
					bulk = true
					break
				}
			}
			if bulk && !tieChecked {
				tieChecked = true
				if a.tiesField(st.Path, bulkField) {
					bulkField, bulk = -1, false
				}
			}
		}
		if bulk {
			bulkDrops++
			dropped = append(dropped, j)
			continue
		}
		cls := a.pc.Paths[j].bindClass
		if verdicts[cls] == unasked {
			var parent expr.Env
			if d.wit != nil {
				parent = d.wit[cls]
			}
			ok, m := a.triggerable(st, j, parent, cond)
			verdicts[cls] = verdictOf(ok)
			if m != nil {
				if wit == nil {
					wit = make([]expr.Env, a.pc.bindClasses)
				}
				wit[cls] = m
			}
		} else {
			bindKeyHits++
		}
		if verdicts[cls] == triggers {
			kept = append(kept, j)
		} else {
			dropped = append(dropped, j)
		}
	}
	d.live, d.wit = kept, wit
	a.mu.Lock()
	a.res.BulkDrops += bulkDrops
	a.res.BindKeyHits += bindKeyHits
	a.res.LiveTrace = append(a.res.LiveTrace, LivePoint{PathLen: len(st.Path), Live: len(kept)})
	a.mu.Unlock()
	// Incremental Trojan check: discard the state as soon as no Trojan
	// message can trigger it (Figure 7).
	return a.trojanPossible(st, d, cond)
}

// trojanPossible checks sat(pathS ∧ ⋀ negate(pathC_i)) for the state's live
// set and keeps the model in d.trojan. Unknown answers keep the state alive
// (conservative). The live set only shrinks along a path, so the parent's
// model satisfies the state's negations, and answers the query whenever it
// satisfies cond as well.
func (a *analysis) trojanPossible(st *symexec.State, d *liveData, cond *expr.Expr) bool {
	negs, ok := a.negations(d.live)
	if !ok {
		return false
	}
	if a.witnessed(st, d.trojan, cond, negs) {
		return true
	}
	res, model := a.sol.CheckPrefixCtx(a.runCtx, st.SolverPrefix(), negs...)
	d.trojan = model
	return res != solver.Unsat
}

// negations returns the distinct negated client predicates of the live set,
// or false when one of them is false: that client path can generate any
// message on the server path, so no Trojan is provable there. Duplicate
// negations (paths that admit identical message sets) collapse to one
// conjunct, the first live path's of each negation class, which keeps the
// DPLL split count proportional to the number of *distinct* client
// predicates rather than the raw path count.
func (a *analysis) negations(live []int) ([]*expr.Expr, bool) {
	negs := make([]*expr.Expr, 0, len(live))
	var buf [64]bool
	var seen []bool
	if n := a.pc.negClasses; n <= len(buf) {
		seen = buf[:n]
	} else {
		seen = make([]bool, n)
	}
	for _, i := range live {
		cp := a.pc.Paths[i]
		if seen[cp.negClass] {
			continue
		}
		seen[cp.negClass] = true
		if cp.negation.IsFalse() {
			return nil, false
		}
		negs = append(negs, cp.negation)
	}
	return negs, true
}

// onAccept emits a Trojan report for an accepting state.
func (a *analysis) onAccept(st *symexec.State) {
	a.mu.Lock()
	a.res.AcceptingStates++
	a.mu.Unlock()
	d := a.ensureData(st)
	a.reportIfTrojan(st, d.live)
}

// filtered counts one accepting state whose Trojan query did not survive.
func (a *analysis) filtered() {
	a.mu.Lock()
	a.res.FilteredReports++
	a.mu.Unlock()
}

// reportIfTrojan solves the final Trojan query for an accepting state and,
// when satisfiable, records a pending report with a verified concrete
// example, streaming it to the observer. Index and ServerStateID assignment
// is deferred to finalize so concurrent discoveries merge deterministically.
func (a *analysis) reportIfTrojan(st *symexec.State, live []int) {
	negs, ok := a.negations(live)
	if !ok {
		a.filtered()
		return
	}
	witness := expr.AndAll(st.Path)
	for _, neg := range negs {
		witness = expr.And(witness, neg)
	}
	res, model := a.sol.CheckPrefixCtx(a.runCtx, st.SolverPrefix(), negs...)
	if res != solver.Sat {
		a.filtered()
		return
	}
	concrete := a.concreteMessage(model)
	stateEnv := a.stateWorld(model)
	rep := pendingReport{
		st:       st,
		witness:  witness,
		concrete: concrete,
		stateEnv: stateEnv,
		live:     append([]int{}, live...),
		elapsed:  time.Since(a.start),
	}
	rep.verifiedNotClient = a.verifyNotClient(concrete, stateEnv)
	if !a.opts.SkipConcreteVerification {
		rep.verifiedAccept = a.verifyAccept(concrete, stateEnv)
	}
	if !rep.verifiedNotClient {
		// The example is generatable by some client path: a false positive
		// (§4.1); drop it rather than report.
		a.filtered()
		return
	}
	if a.runCtx.Err() != nil {
		// Cancellation degrades the verification queries above to Unknown,
		// which verifyNotClient treats as "no client found" — sound in a
		// healthy run, unsound mid-abort. A report finalised under a
		// cancelled context is therefore dropped: every report in a partial
		// result was fully verified before the stop landed.
		a.filtered()
		return
	}
	a.mu.Lock()
	a.pending = append(a.pending, rep)
	discovery := len(a.pending) - 1
	a.mu.Unlock()
	if a.observing {
		a.found.Add(1)
		a.opts.Observer.trojan(TrojanReport{
			Index:             discovery,
			ServerStateID:     rep.st.ID,
			PathLen:           len(rep.st.Path),
			ServerPath:        append([]*expr.Expr{}, rep.st.Path...),
			Witness:           rep.witness,
			Concrete:          rep.concrete,
			StateEnv:          rep.stateEnv,
			LiveClients:       append([]int{}, rep.live...),
			Elapsed:           rep.elapsed,
			VerifiedAccept:    rep.verifiedAccept,
			VerifiedNotClient: rep.verifiedNotClient,
		})
	}
	if a.opts.FirstTrojan {
		// Confirmed Trojan in hand: tear down the whole fan-out. Concurrent
		// workers may append a few more fully-verified reports before the
		// stop reaches them; anything after the stop is dropped above.
		a.stop()
	}
}

// concreteMessage materialises the message fields from a model (absent
// fields default to zero).
func (a *analysis) concreteMessage(model expr.Env) []int64 {
	msg := make([]int64, a.pc.NumFields)
	for f := 0; f < a.pc.NumFields; f++ {
		if v, ok := model[a.pc.MsgVarName(f)]; ok {
			msg[f] = v
		}
	}
	return msg
}

// stateWorld extracts the concrete values of shared symbolic local state
// (variables the engine named "state_*") from a model.
func (a *analysis) stateWorld(model expr.Env) expr.Env {
	env := expr.Env{}
	for _, g := range a.opts.Exec.GlobalSymbolic {
		name := "state_" + g
		env[name] = model[name] // zero when unconstrained
	}
	return env
}

// verifyNotClient checks that no client path predicate admits the concrete
// message within the concrete state world. A path whose member predicates
// already rule the message out (refutedAt) is skipped; every other path is
// decided by the solver. Refuted checks never reach the verdict cache: their
// keys embed a fresh concrete message and would rarely be asked again.
func (a *analysis) verifyNotClient(msg []int64, stateEnv expr.Env) bool {
	var eqs []*expr.Expr
	for f := range msg {
		eqs = append(eqs, expr.Eq(a.pc.msgVar(f), expr.Const(msg[f])))
	}
	for name, v := range stateEnv {
		eqs = append(eqs, expr.Eq(expr.Var(name), expr.Const(v)))
	}
	env := expr.Env{}
	for i, cp := range a.pc.Paths {
		if a.pc.refutedAt(i, msg, env) {
			continue
		}
		bind := cp.Bind()
		q := make([]*expr.Expr, 0, len(bind)+len(eqs))
		q = append(q, bind...)
		q = append(q, eqs...)
		if res, _ := a.sol.CheckCtx(a.runCtx, q); res == solver.Sat {
			return false
		}
	}
	return true
}

// verifyAccept replays the concrete message against the server model, with
// symbolic local state pinned to the discovered world.
func (a *analysis) verifyAccept(msg []int64, stateEnv expr.Env) bool {
	gc := map[string]int64{}
	for k, v := range a.opts.Exec.GlobalConcrete {
		gc[k] = v
	}
	for _, g := range a.opts.Exec.GlobalSymbolic {
		gc[g] = stateEnv["state_"+g]
	}
	opts := symexec.Options{
		Entry:          a.opts.Exec.Entry,
		Concrete:       true,
		Message:        msg,
		Inputs:         a.opts.Exec.Inputs,
		GlobalConcrete: gc,
	}
	res, err := symexec.Run(a.server, opts)
	if err != nil || len(res.States) == 0 {
		return false
	}
	return res.States[0].Status == symexec.StatusAccepted
}

// String renders a short human-readable summary of a report.
func (r TrojanReport) String() string {
	return fmt.Sprintf("trojan #%d: state %d, path len %d, example %v (accept=%v, non-client=%v)",
		r.Index, r.ServerStateID, r.PathLen, r.Concrete, r.VerifiedAccept, r.VerifiedNotClient)
}
