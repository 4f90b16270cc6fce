package core

import (
	"context"

	"achilles/internal/expr"
	"achilles/internal/solver"
)

// RefutedAt exposes the §4 guard's concrete refutation step: whether client
// path i's member predicates rule msg out without a solver query.
func RefutedAt(pc *ClientPredicate, i int, msg []int64) bool {
	return pc.refutedAt(i, msg, expr.Env{})
}

// VerifyNotClient runs the whole §4 guard on one concrete message in one
// state world: the refutation step, then the solver for every path it leaves.
func VerifyNotClient(pc *ClientPredicate, s *solver.Solver, msg []int64, stateEnv expr.Env) bool {
	a := &analysis{pc: pc, sol: s, runCtx: context.Background()}
	return a.verifyNotClient(msg, stateEnv)
}

// SetWitnessHookForTest makes every query a parent model answers call f with
// the state's path, the query's suffix and the model, and returns a func
// that removes the hook. f may be called from several goroutines at once
// and must not modify the model.
func SetWitnessHookForTest(f func(path, suffix []*expr.Expr, model expr.Env)) (restore func()) {
	witnessHook = f
	return func() { witnessHook = nil }
}

// Member returns client path i's member predicate for field f: its value set
// over the member variable, nil when the field is masked or not simple.
func Member(pc *ClientPredicate, i, f int) *expr.Expr { return pc.members[i][f] }

// NegClass returns client path i's negation class.
func NegClass(pc *ClientPredicate, i int) int { return pc.Paths[i].negClass }

// KVars returns client path i's per-constraint variable lists.
func KVars(pc *ClientPredicate, i int) [][]string { return pc.Paths[i].kvars }

// MsgVar returns the predicate's message variable node for field f.
func MsgVar(pc *ClientPredicate, f int) *expr.Expr { return pc.msgVar(f) }
