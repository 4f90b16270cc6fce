// Package testutil holds small helpers shared by the repo's test suites.
package testutil

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"achilles/internal/expr"
	"achilles/internal/solver"
)

// CheckGoroutineLeak snapshots the current goroutine count and registers a
// cleanup that fails the test if the count has not returned to the baseline
// by the time the test ends (polling for up to two seconds first, because
// cancelled workers unwind asynchronously).
//
// Call it before starting the work under test:
//
//	func TestCancelSomething(t *testing.T) {
//		testutil.CheckGoroutineLeak(t)
//		... start, cancel, assert ...
//	}
//
// It is the standing guard of every cancellation suite — session, engine,
// core and serve — that tearing down mid-flight analyses leaves no workers,
// watchers or event pumps behind.
func CheckGoroutineLeak(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("goroutine leak: %d before, %d after", before, now)
		}
	})
}

// WitnessFault says why model cannot answer the satisfiability query q, or
// returns "" when it can: the model falsifies none of q's constraints, and,
// unless seen, a fresh cache-disabled solver does not find q Unsat. A
// constraint over a variable the model leaves unbound (one only in a
// disjunct the search never chose) is not evaluated.
//
// It backs the witness differentials of internal/core and internal/symexec,
// which hold every query a parent state's model answered against the solver
// the model stands in for.
func WitnessFault(q []*expr.Expr, model expr.Env, seen bool) string {
	for _, c := range q {
		if v, err := expr.EvalBool(c, model); err == nil && !v {
			return fmt.Sprintf("the model %v falsifies %v in %v", model, c, q)
		}
	}
	if seen {
		return ""
	}
	if res, _ := solver.New(solver.Options{DisableCache: true}).Check(q); res == solver.Unsat {
		return fmt.Sprintf("the solver finds %v Unsat", q)
	}
	return ""
}
