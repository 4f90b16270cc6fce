package core_test

import (
	"context"
	"testing"

	"achilles/internal/core"
	"achilles/internal/expr"
	"achilles/internal/protocols/fsp"
	"achilles/internal/solver"
)

// TestPreprocessSharesMessageVars holds what preprocessing leaves live for
// the server phase on the rich FSP corpus: no path keeps its per-constraint
// variable lists, and every message variable in a bind or a negation is the
// predicate's one node for that field, not a copy per path.
func TestPreprocessSharesMessageVars(t *testing.T) {
	tgt := fsp.NewRichTarget(false)
	for _, j := range []int{1, 2} {
		pc, err := core.ExtractClientPredicateCtx(context.Background(), tgt.Clients, core.ExtractOptions{
			Exec:        tgt.ClientExec,
			FieldNames:  tgt.FieldNames,
			Mask:        tgt.Mask,
			SharedState: tgt.SharedState,
			Solver:      solver.Default(),
			Parallelism: j,
		})
		if err != nil {
			t.Fatal(err)
		}
		vars := 0
		var walk func(e *expr.Expr)
		walk = func(e *expr.Expr) {
			if e.Kind == expr.KVar {
				if f := pc.FieldIndexOfVar(e.Name); f >= 0 && f < pc.NumFields {
					if e != core.MsgVar(pc, f) {
						t.Fatalf("-j %d: a copy of %s outside the predicate's node", j, e.Name)
					}
					vars++
				}
				return
			}
			for _, a := range e.Args {
				walk(a)
			}
		}
		for i, cp := range pc.Paths {
			if core.KVars(pc, i) != nil {
				t.Fatalf("-j %d: path %d kept its variable lists after preprocessing", j, i)
			}
			for _, b := range cp.Bind() {
				walk(b)
			}
			walk(cp.Negation())
		}
		// Every bind holds one m_f per field, so the walk cannot pass
		// vacuously.
		if min := len(pc.Paths) * pc.NumFields; vars < min {
			t.Fatalf("-j %d: %d message variables in binds and negations, want at least %d", j, vars, min)
		}
	}
}
