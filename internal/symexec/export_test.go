package symexec

import (
	"context"
	"fmt"

	"achilles/internal/expr"
	"achilles/internal/lang"
)

// SetWitnessHookForTest makes every feasibility question the path model
// answers call f with the path, the condition and the model, and returns a
// func that removes the hook. f may be called from several goroutines at
// once and must not modify the model.
func SetWitnessHookForTest(f func(path []*expr.Expr, cond *expr.Expr, model expr.Env)) (restore func()) {
	witnessHook = f
	return func() { witnessHook = nil }
}

// ReferenceDFS explores unit with a plain depth-first worklist on the
// calling goroutine, without the frontier: it is the independent reference
// the frontier's tests hold every worker count against. States come back
// in completion order with their creation-order IDs, a hook-pruned sibling
// is recorded at fork time, and a MaxStates budget keeps the depth-first
// prefix.
func ReferenceDFS(unit *lang.Unit, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	entry := unit.FuncNamed(opts.Entry)
	if entry == nil {
		return nil, fmt.Errorf("%w: %q", ErrEntryMissing, opts.Entry)
	}
	e := &engine{unit: unit, opts: opts, ctx: context.Background()}
	var w wctx
	work := []*State{e.initialState(entry)}
	for len(work) > 0 && int(e.termCount.Load()) < opts.MaxStates {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		for st.Status == StatusRunning {
			if child := e.step(&w, st); child != nil {
				work = append(work, child)
			}
		}
		e.record(&w, st)
	}
	w.stats.Truncated = len(work) > 0
	return &Result{States: w.terminals, Stats: w.stats}, nil
}
