// Package symexec implements the forking symbolic interpreter for NL
// programs — the role S2E plays in the Achilles paper.
//
// The engine executes the flat IR produced by internal/lang. Execution
// states carry a symbolic store (function frames and module globals mapping
// to expression trees), the accumulated path constraints, and the messages
// sent/received on the path. At every conditional branch whose condition is
// symbolic, the engine queries the constraint solver for the feasibility of
// both sides and forks the state when both are feasible — exactly the
// execution model described in §3.1 of the paper.
//
// The same engine runs programs concretely (Options.Concrete): all inputs
// come from provided queues, no forking occurs, and no solver is consulted.
// The black-box fuzzing baseline and the Trojan-injection oracles reuse the
// concrete mode, which guarantees that analysis and replay agree on the
// program semantics.
//
// Every run, symbolic or concrete, goes through one exploration loop: a
// LIFO frontier shared by max(1, Options.Parallelism) workers (see
// parallel.go). The explored tree does not depend on the worker count —
// feasibility depends only on the path, and the solver is deterministic —
// and terminal states come back in fork-tree order (State.Trail) with IDs
// renumbered to it, so results are the same whatever the worker count and
// scheduling.
package symexec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"achilles/internal/expr"
	"achilles/internal/lang"
	"achilles/internal/solver"
)

// Version identifies the exploration semantics of this engine revision.
// It is folded into audit input fingerprints, so bump it whenever a change
// can alter the terminal-state set of a run (forking rules, feasibility
// treatment, truncation policy) — stale campaign baselines then stop being
// reused instead of silently pinning results the current engine would not
// reproduce.
const Version = "symexec/1"

// Status describes how the execution of one path ended.
type Status uint8

// Path terminal statuses.
const (
	StatusRunning  Status = iota // still on the worklist
	StatusAccepted               // reached accept()
	StatusRejected               // reached reject()
	StatusExited                 // exit(), failed assume(), or main returned
	StatusPruned                 // discarded by a hook (no Trojan possible)
	StatusError                  // runtime error (see State.Err)
)

func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusAccepted:
		return "accepted"
	case StatusRejected:
		return "rejected"
	case StatusExited:
		return "exited"
	case StatusPruned:
		return "pruned"
	case StatusError:
		return "error"
	}
	return "status?"
}

// ArrayObj is a mutable array value. States share ArrayObjs internally;
// forking performs an aliasing-preserving deep copy.
type ArrayObj struct {
	Elems []*expr.Expr
}

// Value is a scalar expression or an array reference stored in a slot.
type Value struct {
	Sc  *expr.Expr
	Arr *ArrayObj
}

// Frame is one function activation.
type Frame struct {
	Fn        *lang.IRFunc
	PC        int
	Slots     []Value
	RetDst    lang.VarRef // where the caller wants the return value
	HasRetDst bool
	RetReg    *expr.Expr // value produced by the last completed call
}

// SentMessage is a message captured at a send() call: the snapshot of the
// buffer's field expressions plus the path constraints in force at the send.
type SentMessage struct {
	Fields []*expr.Expr
	Path   []*expr.Expr
}

// StateData is optional analysis-specific state attached to an execution
// state; it is cloned whenever the state forks.
type StateData interface{ CloneData() StateData }

// State is one symbolic (or concrete) execution state.
type State struct {
	// ID numbers the state: in creation order while the run is live (as
	// hooks see it), and in Trail order, 0..n−1, in the run's Result.
	ID      int
	Globals []Value
	Frames  []Frame
	Path    []*expr.Expr // path constraints (conjunction)
	Status  Status
	Err     error

	// Trail is the state's position in the fork tree: one byte per forking
	// branch, '0' for the true side and '1' for the false side. Terminal
	// states have unique trails, and every Result lists them in
	// lexicographic trail order — the depth-first order of the fork tree,
	// whatever the worker count.
	Trail string

	Sent    []SentMessage // messages sent on this path
	MsgVars []string      // names of the symbolic message variables from recv()
	Depth   int           // number of symbolic branch decisions on this path
	Steps   int

	Data StateData // analysis payload (cloned on fork)

	inputCursor int // next index into Options.Inputs (concrete mode)
	varCounter  int // fresh symbolic variable counter
	msgCounter  int // recv() counter

	// prefix mirrors Path as an incremental solver handle: it is extended
	// exactly when Path grows, so feasibility queries reuse the path's
	// flattened form and sorted cache-key renderings instead of rebuilding
	// them per branch, and duplicate/complement branch conditions
	// are decided without a solver call (see solver.Prefix). Prefixes are
	// immutable, so forked siblings share the parent handle. It is nil only
	// in concrete mode, where branch and assume return before any
	// feasibility check or hook, so Path stays empty there.
	prefix *solver.Prefix

	// model satisfies Path (nil when no model is known, e.g. after an
	// Unknown answer). It answers a feasibility question without the solver
	// whenever it satisfies the new condition too; see feasible. Models are
	// read-only once stored, so states share them.
	model expr.Env
}

// frame returns the top activation.
func (st *State) frame() *Frame { return &st.Frames[len(st.Frames)-1] }

// SolverPrefix exposes the state's incremental path handle so analysis hooks
// can issue path-plus-suffix solver queries through the prefix handle
// (solver.CheckPrefixCtx) instead of re-submitting the whole path. It is
// nil in concrete mode and always mirrors Path otherwise.
func (st *State) SolverPrefix() *solver.Prefix { return st.prefix }

// PathExpr returns the conjunction of the path constraints.
func (st *State) PathExpr() *expr.Expr { return expr.AndAll(st.Path) }

// Hooks intercept engine events. Any hook may be nil. When the engine runs
// with Parallelism > 1 the hooks are invoked concurrently from the worker
// goroutines and must be safe for concurrent use; the state passed to a hook
// is owned by the calling worker and may be mutated freely. A hook sees a
// state's creation-order ID, not the trail-order ID of the Result.
type Hooks struct {
	// OnBranch runs after a new symbolic branch constraint was appended to
	// st.Path. Returning false prunes the state (StatusPruned).
	OnBranch func(st *State, cond *expr.Expr) bool
	// OnSend runs when a state executes send().
	OnSend func(st *State, msg SentMessage)
	// OnAccept runs when a state reaches accept().
	OnAccept func(st *State)
	// OnReject runs when a state reaches reject().
	OnReject func(st *State)
}

// Options configure a run.
type Options struct {
	// Entry is the function to execute; defaults to "main".
	Entry string
	// MaxStates bounds the number of states explored (default 1 << 20).
	MaxStates int
	// MaxSteps bounds instructions per state (default 1 << 20).
	MaxSteps int
	// Solver decides branch feasibility; a symbolic run left without one
	// builds a fresh solver.Default(), so callers that run many engines
	// (core's client extraction passes a scoped view of its run's solver)
	// set it to share one verdict cache. A concrete run never asks one and
	// builds none.
	Solver *solver.Solver
	// Hooks intercept events.
	Hooks Hooks

	// Parallelism is the number of exploration workers; values <= 1 run one
	// worker on the calling goroutine, and a concrete run (a single path)
	// always runs one. The analysis sets it for Target.ServerExec and
	// ClientExec from its own Parallelism. Terminal states come back in
	// fork-tree (Trail) order with IDs renumbered to that order, so a run
	// that completes within MaxStates returns the same result at any worker
	// count. The MaxStates budget counts recorded terminal states and
	// raises Stats.Truncated when it stops the frontier; one worker then
	// keeps the depth-first prefix, several keep a scheduling-dependent
	// subset. Size MaxStates as a runaway backstop, not as a sampling
	// mechanism.
	Parallelism int

	// Concrete switches to concrete execution: inputs come from Inputs and
	// Message, branches must evaluate to constants, and no forking happens.
	Concrete bool
	// Inputs feeds input()/symbolic() calls in concrete mode.
	Inputs []int64
	// Message feeds recv() in concrete mode.
	Message []int64

	// MsgPrefix names symbolic message variables (default "m"): recv() of a
	// k-element array yields m0 .. m{k-1}.
	MsgPrefix string
	// InputPrefix names symbolic input variables (default "in").
	InputPrefix string

	// GlobalConcrete pre-sets scalar globals to concrete values before the
	// run (the paper's Concrete Local State mode, §3.4).
	GlobalConcrete map[string]int64
	// GlobalSymbolic pre-sets scalar globals to fresh unconstrained symbolic
	// values (the Over-approximate Symbolic Local State mode, §3.4).
	GlobalSymbolic []string
}

func (o Options) withDefaults() Options {
	if o.Entry == "" {
		o.Entry = "main"
	}
	if o.MaxStates == 0 {
		o.MaxStates = 1 << 20
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 1 << 20
	}
	if o.Solver == nil && !o.Concrete {
		o.Solver = solver.Default()
	}
	if o.MsgPrefix == "" {
		o.MsgPrefix = "m"
	}
	if o.InputPrefix == "" {
		o.InputPrefix = "in"
	}
	return o
}

// Stats are counters for one run.
type Stats struct {
	States      int // terminal states produced
	Forks       int
	Steps       int
	SolverCalls int

	// Subsumed counts branch feasibility questions answered by the path
	// prefix's interned atoms — a condition (or its complement) already
	// on the path — without consulting the solver.
	Subsumed int
	// Witnessed counts feasibility questions answered by the path model:
	// the condition holds under a model of the path, so it is feasible.
	Witnessed int

	// Truncated reports that the exploration stopped before the fork tree
	// was exhausted — either MaxStates tripped while unexplored states
	// remained on the frontier, or the run's context was cancelled. The
	// terminal set (and everything derived from it, e.g. a Trojan class set)
	// is a partial sample, not the full fork tree.
	Truncated bool

	// Cancelled reports that the run's context was cancelled (or its
	// deadline passed) before the exploration finished. A cancelled run is
	// always Truncated too.
	Cancelled bool
}

// Result is the outcome of a run.
type Result struct {
	// Terminal states in fork-tree (Trail) order; each one's ID is its index.
	States []*State
	Stats  Stats
}

// ByStatus filters terminal states.
func (r *Result) ByStatus(s Status) []*State {
	var out []*State
	for _, st := range r.States {
		if st.Status == s {
			out = append(out, st)
		}
	}
	return out
}

// engine is the state of one run of a compiled unit.
type engine struct {
	unit *lang.Unit
	opts Options
	ctx  context.Context // run context, never nil
	next atomic.Int64    // creation-order state id counter

	front     frontier       // the run's work queue
	helpers   sync.WaitGroup // workers 1..n-1; worker 0 is the caller
	termCount atomic.Int64   // terminal states recorded (MaxStates enforcement)
	cancelled atomic.Bool    // ctx fired before the exploration finished
}

// stepCheckMask paces cancellation polling inside the interpreter loop:
// ctx.Err() can take a lock, so a running state only consults it every 256
// instructions; between polls the AfterFunc callback stops the frontier. A
// few hundred IR steps complete in microseconds, keeping abort latency far
// below any deadline a caller would set.
const stepCheckMask = 255

// ctxAborted reports that the run context is cancelled, and then stops the
// frontier without waiting for the AfterFunc callback.
func (e *engine) ctxAborted() bool {
	if e.ctx.Err() == nil {
		return false
	}
	e.abort()
	return true
}

// wctx is the per-worker execution context: statistics and terminal states
// accumulate here without synchronisation and are merged after the run.
type wctx struct {
	stats     Stats
	terminals []*State
}

// record books a terminal state into the worker context and bumps the run's
// terminal count; reaching MaxStates stops the frontier.
func (e *engine) record(ctx *wctx, st *State) {
	ctx.stats.States++
	ctx.terminals = append(ctx.terminals, st)
	if int(e.termCount.Add(1)) >= e.opts.MaxStates {
		e.front.stop()
	}
}

// Run explores the program from the entry function and returns all terminal
// states.
func Run(unit *lang.Unit, opts Options) (*Result, error) {
	return RunCtx(context.Background(), unit, opts)
}

// RunCtx is Run under a context: cancellation (or a deadline) aborts the
// exploration cleanly mid-frontier. The terminal states recorded up to the
// abort are returned with Stats.Truncated and Stats.Cancelled set; like a
// MaxStates truncation, which subset survives depends on scheduling when
// several workers run.
func RunCtx(ctx context.Context, unit *lang.Unit, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	entry := unit.FuncNamed(opts.Entry)
	if entry == nil {
		return nil, fmt.Errorf("%w: %q", ErrEntryMissing, opts.Entry)
	}
	if len(entry.Params) != 0 {
		return nil, fmt.Errorf("symexec: entry function %q must take no parameters", opts.Entry)
	}
	e := &engine{unit: unit, opts: opts, ctx: ctx}
	return e.explore(e.initialState(entry)), nil
}

// ErrEntryMissing is returned when the entry function does not exist.
var ErrEntryMissing = errors.New("symexec: entry function not found")

// initialState builds globals and the entry frame.
func (e *engine) initialState(entry *lang.IRFunc) *State {
	st := &State{ID: int(e.next.Add(1) - 1)}
	st.Globals = make([]Value, len(e.unit.Globals))
	for i, g := range e.unit.Globals {
		if g.Type.Kind == lang.TypeArray {
			arr := &ArrayObj{Elems: make([]*expr.Expr, g.Type.Len)}
			for j := range arr.Elems {
				arr.Elems[j] = expr.Const(0)
			}
			st.Globals[i] = Value{Arr: arr}
			continue
		}
		st.Globals[i] = Value{Sc: expr.Const(g.Init)}
	}
	for name, v := range e.opts.GlobalConcrete {
		if gi := e.unit.GlobalNamed(name); gi >= 0 {
			st.Globals[gi] = Value{Sc: expr.Const(v)}
		}
	}
	for _, name := range e.opts.GlobalSymbolic {
		if gi := e.unit.GlobalNamed(name); gi >= 0 {
			st.Globals[gi] = Value{Sc: expr.Var(fmt.Sprintf("state_%s", name))}
		}
	}
	st.Frames = []Frame{{Fn: entry, Slots: make([]Value, entry.NumSlots)}}
	if !e.opts.Concrete {
		st.prefix = e.opts.Solver.NewPrefix()
	}
	return st
}

// arrayAlias pairs an array of a forked state with its copy. A state holds
// a handful of arrays, so a fork's alias table is a small slice, scanned
// linearly, instead of a map built per fork.
type arrayAlias struct{ old, dup *ArrayObj }

// copyValue returns v with its array, if any, replaced by the array's copy,
// made on first sight and recorded in seen, so arrays aliased in the parent
// stay aliased in the child.
func copyValue(seen []arrayAlias, v Value) (Value, []arrayAlias) {
	if v.Arr == nil {
		return v, seen
	}
	for _, a := range seen {
		if a.old == v.Arr {
			return Value{Arr: a.dup}, seen
		}
	}
	dup := &ArrayObj{Elems: append([]*expr.Expr{}, v.Arr.Elems...)}
	return Value{Arr: dup}, append(seen, arrayAlias{v.Arr, dup})
}

// fork deep-copies a state, preserving array aliasing.
func (e *engine) fork(ctx *wctx, st *State) *State {
	ns := &State{
		ID:          int(e.next.Add(1) - 1),
		Status:      st.Status,
		Depth:       st.Depth,
		Steps:       st.Steps,
		Trail:       st.Trail,
		inputCursor: st.inputCursor,
		varCounter:  st.varCounter,
		msgCounter:  st.msgCounter,
		prefix:      st.prefix, // immutable; extended per-side after the fork
	}
	var buf [8]arrayAlias
	seen := buf[:0]
	ns.Globals = make([]Value, len(st.Globals))
	for i, v := range st.Globals {
		ns.Globals[i], seen = copyValue(seen, v)
	}
	ns.Frames = make([]Frame, len(st.Frames))
	for i, fr := range st.Frames {
		nf := fr
		nf.Slots = make([]Value, len(fr.Slots))
		for j, v := range fr.Slots {
			nf.Slots[j], seen = copyValue(seen, v)
		}
		ns.Frames[i] = nf
	}
	ns.Path = append([]*expr.Expr{}, st.Path...)
	ns.Sent = append([]SentMessage{}, st.Sent...)
	ns.MsgVars = append([]string{}, st.MsgVars...)
	if st.Data != nil {
		ns.Data = st.Data.CloneData()
	}
	ctx.stats.Forks++
	return ns
}

// fail marks the state as errored.
func (e *engine) fail(st *State, pos lang.Pos, format string, args ...any) {
	st.Status = StatusError
	st.Err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

// step executes one instruction. It returns a forked sibling state to
// enqueue, or nil.
func (e *engine) step(ctx *wctx, st *State) *State {
	st.Steps++
	ctx.stats.Steps++
	if st.Steps > e.opts.MaxSteps {
		e.fail(st, lang.Pos{}, "step budget exhausted (%d); possible unbounded loop", e.opts.MaxSteps)
		return nil
	}
	fr := st.frame()
	if fr.PC >= len(fr.Code()) {
		e.fail(st, lang.Pos{}, "pc out of range in %s", fr.Fn.Name)
		return nil
	}
	in := &fr.Code()[fr.PC]
	switch in.Op {
	case lang.OpAssign:
		v, err := e.eval(st, fr, in.X)
		if err != nil {
			e.fail(st, in.Pos, "%v", err)
			return nil
		}
		e.writeVar(st, fr, in.Dst, Value{Sc: v})
		fr.PC++
		return nil

	case lang.OpNewArr:
		arr := &ArrayObj{Elems: make([]*expr.Expr, in.A)}
		for i := range arr.Elems {
			arr.Elems[i] = expr.Const(0)
		}
		e.writeVar(st, fr, in.Dst, Value{Arr: arr})
		fr.PC++
		return nil

	case lang.OpStore:
		arrV := e.readVar(st, fr, in.Dst)
		if arrV.Arr == nil {
			e.fail(st, in.Pos, "store target is not an array")
			return nil
		}
		idx, err := e.eval(st, fr, in.Index)
		if err != nil {
			e.fail(st, in.Pos, "%v", err)
			return nil
		}
		if !idx.IsConst() {
			e.fail(st, in.Pos, "symbolic array index is not supported (index %s)", idx)
			return nil
		}
		if idx.Val < 0 || idx.Val >= int64(len(arrV.Arr.Elems)) {
			e.fail(st, in.Pos, "array index %d out of range [0,%d)", idx.Val, len(arrV.Arr.Elems))
			return nil
		}
		v, err := e.eval(st, fr, in.X)
		if err != nil {
			e.fail(st, in.Pos, "%v", err)
			return nil
		}
		arrV.Arr.Elems[idx.Val] = v
		fr.PC++
		return nil

	case lang.OpJmp:
		fr.PC = in.A
		return nil

	case lang.OpCJmp:
		cond, err := e.eval(st, fr, in.X)
		if err != nil {
			e.fail(st, in.Pos, "%v", err)
			return nil
		}
		return e.branch(ctx, st, fr, in, cond)

	case lang.OpCall:
		fn := e.unit.Funcs[in.F]
		slots := make([]Value, fn.NumSlots)
		for i, p := range fn.Params {
			if p.Type.Kind == lang.TypeArray {
				ve := in.Args[i].(*lang.VarExpr)
				av := e.readVarRef(st, fr, ve.Ref)
				slots[i] = av
				continue
			}
			v, err := e.eval(st, fr, in.Args[i])
			if err != nil {
				e.fail(st, in.Pos, "%v", err)
				return nil
			}
			slots[i] = Value{Sc: v}
		}
		fr.PC++ // resume after the call
		st.Frames = append(st.Frames, Frame{
			Fn:        fn,
			Slots:     slots,
			RetDst:    in.Dst,
			HasRetDst: in.HasDst,
		})
		return nil

	case lang.OpRet:
		var ret *expr.Expr
		if in.X != nil {
			if lang.IsRetRegister(in.X) {
				ret = fr.RetReg
			} else {
				v, err := e.eval(st, fr, in.X)
				if err != nil {
					e.fail(st, in.Pos, "%v", err)
					return nil
				}
				ret = v
			}
		}
		frame := st.Frames[len(st.Frames)-1]
		st.Frames = st.Frames[:len(st.Frames)-1]
		if len(st.Frames) == 0 {
			st.Status = StatusExited
			return nil
		}
		caller := st.frame()
		if frame.HasRetDst {
			if ret == nil {
				ret = expr.Const(0)
			}
			e.writeVar(st, caller, frame.RetDst, Value{Sc: ret})
		} else if ret != nil {
			caller.RetReg = ret
		}
		return nil

	case lang.OpIntrin:
		return e.intrinsic(ctx, st, fr, in)
	}
	e.fail(st, in.Pos, "unknown opcode %v", in.Op)
	return nil
}

// Code returns the instruction slice of the frame's function.
func (fr *Frame) Code() []lang.Instr { return fr.Fn.Code }

// branch handles OpCJmp. It may fork, returning the sibling state.
func (e *engine) branch(ctx *wctx, st *State, fr *Frame, in *lang.Instr, cond *expr.Expr) *State {
	if cond.IsBoolLit() {
		if cond.IsTrue() {
			fr.PC = in.A
		} else {
			fr.PC = in.B
		}
		return nil
	}
	if e.opts.Concrete {
		e.fail(st, in.Pos, "symbolic condition %s in concrete mode", cond)
		return nil
	}
	negCond := expr.Not(cond)
	tFeasible, tModel := e.feasible(ctx, st, cond)
	fFeasible, fModel := e.feasible(ctx, st, negCond)
	switch {
	case tFeasible && fFeasible:
		sibling := e.fork(ctx, st)
		// Parent takes the true side.
		st.Depth++
		st.Trail += "0"
		st.Path = append(st.Path, cond)
		st.prefix = st.prefix.Extend(cond)
		st.model = tModel
		fr.PC = in.A
		if !e.fireBranch(st, cond) {
			st.Status = StatusPruned
		}
		// Sibling takes the false side.
		sibling.Depth++
		sibling.Trail += "1"
		sibling.Path = append(sibling.Path, negCond)
		sibling.prefix = sibling.prefix.Extend(negCond)
		sibling.model = fModel
		sibling.frame().PC = in.B
		if !e.fireBranch(sibling, negCond) {
			sibling.Status = StatusPruned
			e.record(ctx, sibling)
			return nil
		}
		return sibling
	case tFeasible:
		fr.PC = in.A
		return nil
	case fFeasible:
		fr.PC = in.B
		return nil
	default:
		// Both sides infeasible: the path constraints themselves became
		// unsatisfiable (can happen with Unknown answers); drop the path.
		st.Status = StatusExited
		return nil
	}
}

func (e *engine) fireBranch(st *State, cond *expr.Expr) bool {
	if e.opts.Hooks.OnBranch == nil {
		return true
	}
	return e.opts.Hooks.OnBranch(st, cond)
}

// feasible asks the solver whether the path plus cond is satisfiable, and
// returns a model of the extended path when one is known. Unknown is treated
// as feasible (sound for bug finding: accepted paths are re-verified before
// reporting).
//
// Two fast paths answer without a full solve. Frontier subsumption: when
// cond (or its complement) is already a conjunctive atom of the path, the
// prefix's interned atoms decide the question syntactically with the
// exact answer the solver would give (see solver.Prefix.Implies) — this is
// what collapses the sibling states whose branch condition is implied by an
// already-explored path. Path model: when the path's model satisfies cond, it
// is a model of the extended path, so the solver could not answer Unsat. A
// model that binds every variable of cond satisfies cond or its complement,
// so one side of such a two-sided branch is always answered this way.
// Otherwise the query runs through the prefix handle, reusing the path's
// flattened form instead of re-flattening the shared prefix.
func (e *engine) feasible(ctx *wctx, st *State, cond *expr.Expr) (bool, expr.Env) {
	if cond.IsTrue() {
		return true, st.model
	}
	if cond.IsFalse() {
		return false, nil
	}
	if holds, ok := st.prefix.Implies(cond); ok {
		ctx.stats.Subsumed++
		return holds, st.model
	}
	if st.model != nil {
		// An unbound variable (new in cond, or only in a disjunct the search
		// never chose) or a division by zero falls back to the solver.
		if v, err := expr.EvalBool(cond, st.model); err == nil && v {
			ctx.stats.Witnessed++
			if witnessHook != nil {
				witnessHook(st.Path, cond, st.model)
			}
			return true, st.model
		}
	}
	ctx.stats.SolverCalls++
	res, model := e.opts.Solver.CheckPrefixCtx(e.ctx, st.prefix, cond)
	return res != solver.Unsat, model
}

// witnessHook, when set by a test, observes every feasibility question the
// path model answered: the path, the condition and the model.
var witnessHook func(path []*expr.Expr, cond *expr.Expr, model expr.Env)

// intrinsic executes an OpIntrin instruction.
func (e *engine) intrinsic(ctx *wctx, st *State, fr *Frame, in *lang.Instr) *State {
	switch in.Bi {
	case lang.BRecv:
		ve := in.Args[0].(*lang.VarExpr)
		av := e.readVarRef(st, fr, ve.Ref)
		if av.Arr == nil {
			e.fail(st, in.Pos, "recv target is not an array")
			return nil
		}
		if e.opts.Concrete {
			if len(e.opts.Message) != len(av.Arr.Elems) {
				e.fail(st, in.Pos, "concrete message has %d fields, buffer wants %d",
					len(e.opts.Message), len(av.Arr.Elems))
				return nil
			}
			for i, v := range e.opts.Message {
				av.Arr.Elems[i] = expr.Const(v)
			}
			fr.PC++
			return nil
		}
		base := st.msgCounter
		st.msgCounter++
		for i := range av.Arr.Elems {
			name := fmt.Sprintf("%s%d", e.opts.MsgPrefix, i)
			if base > 0 {
				name = fmt.Sprintf("%s_r%d_%d", e.opts.MsgPrefix, base, i)
			}
			av.Arr.Elems[i] = expr.Var(name)
			st.MsgVars = append(st.MsgVars, name)
		}
		fr.PC++
		return nil

	case lang.BSend:
		ve := in.Args[0].(*lang.VarExpr)
		av := e.readVarRef(st, fr, ve.Ref)
		if av.Arr == nil {
			e.fail(st, in.Pos, "send source is not an array")
			return nil
		}
		msg := SentMessage{
			Fields: append([]*expr.Expr{}, av.Arr.Elems...),
			Path:   append([]*expr.Expr{}, st.Path...),
		}
		st.Sent = append(st.Sent, msg)
		if e.opts.Hooks.OnSend != nil {
			e.opts.Hooks.OnSend(st, msg)
		}
		fr.PC++
		return nil

	case lang.BAssume:
		cond, err := e.eval(st, fr, in.Args[0])
		if err != nil {
			e.fail(st, in.Pos, "%v", err)
			return nil
		}
		if cond.IsBoolLit() {
			if cond.IsFalse() {
				st.Status = StatusExited
				return nil
			}
			fr.PC++
			return nil
		}
		if e.opts.Concrete {
			e.fail(st, in.Pos, "symbolic assume in concrete mode")
			return nil
		}
		ok, model := e.feasible(ctx, st, cond)
		if !ok {
			st.Status = StatusExited
			return nil
		}
		st.Path = append(st.Path, cond)
		st.prefix = st.prefix.Extend(cond)
		st.model = model
		// assume() adds a path constraint just like a branch does, so the
		// branch hook fires here too (analyses track every constraint).
		if !e.fireBranch(st, cond) {
			st.Status = StatusPruned
			return nil
		}
		fr.PC++
		return nil

	case lang.BAccept:
		st.Status = StatusAccepted
		if e.opts.Hooks.OnAccept != nil {
			e.opts.Hooks.OnAccept(st)
		}
		return nil

	case lang.BReject:
		st.Status = StatusRejected
		if e.opts.Hooks.OnReject != nil {
			e.opts.Hooks.OnReject(st)
		}
		return nil

	case lang.BExit:
		st.Status = StatusExited
		return nil
	}
	e.fail(st, in.Pos, "unknown intrinsic")
	return nil
}

// readVar reads a storage location relative to the given frame.
func (e *engine) readVar(st *State, fr *Frame, ref lang.VarRef) Value {
	if ref.Global {
		return st.Globals[ref.Idx]
	}
	return fr.Slots[ref.Idx]
}

// readVarRef reads through a checker Ref (local/global).
func (e *engine) readVarRef(st *State, fr *Frame, ref lang.Ref) Value {
	switch ref.Kind {
	case lang.RefLocal:
		return fr.Slots[ref.Idx]
	case lang.RefGlobal:
		return st.Globals[ref.Idx]
	}
	return Value{}
}

func (e *engine) writeVar(st *State, fr *Frame, ref lang.VarRef, v Value) {
	if ref.Global {
		st.Globals[ref.Idx] = v
		return
	}
	fr.Slots[ref.Idx] = v
}
