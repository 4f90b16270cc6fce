package symexec

import "achilles/internal/expr"

// SetWitnessHookForTest makes every feasibility question the path model
// answers call f with the path, the condition and the model, and returns a
// func that removes the hook. f may be called from several goroutines at
// once and must not modify the model.
func SetWitnessHookForTest(f func(path []*expr.Expr, cond *expr.Expr, model expr.Env)) (restore func()) {
	witnessHook = f
	return func() { witnessHook = nil }
}
