package core_test

import (
	"context"
	"slices"
	"testing"

	"achilles/internal/core"
	"achilles/internal/expr"
	"achilles/internal/protocols/fsp"
	"achilles/internal/solver"
)

// TestPreprocessSharesMessageVars holds that expressions reach the server
// phase canonical on the rich FSP corpus: every message variable in a bind
// or a negation is the one node of its name, not a copy per path.
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
					if e != expr.Var(pc.MsgVarName(f)) {
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
		for _, cp := range pc.Paths {
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

// TestBindsBuiltOnDemand holds that a run builds only the binds it reads:
// 32 of the rich FSP corpus's 256 at -j 1 and -j 2. A bind the run never
// read is built by its first Bind call and equals an eager buildBind.
func TestBindsBuiltOnDemand(t *testing.T) {
	for _, j := range []int{1, 2} {
		run, err := core.Run(fsp.NewRichTarget(false), core.AnalysisOptions{Parallelism: j})
		if err != nil {
			t.Fatal(err)
		}
		pc := run.Clients
		var unread []int
		for i := range pc.Paths {
			if !core.BindBuilt(pc, i) {
				unread = append(unread, i)
			}
		}
		if built := len(pc.Paths) - len(unread); len(pc.Paths) != 256 || built != 32 {
			t.Fatalf("-j %d: %d of %d binds built, want 32 of 256", j, built, len(pc.Paths))
		}
		for _, i := range unread {
			got, want := pc.Paths[i].Bind(), core.BuildBind(pc, i)
			if !slices.Equal(got, want) {
				t.Fatalf("-j %d: path %d: Bind() = %v, eager build = %v", j, i, got, want)
			}
		}
	}
}
