package solver

import (
	"context"
	"maps"
	"testing"

	"achilles/internal/expr"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestSolverQueryAllocs pins what a query that misses the cache allocates
// once the pooled scratch is warm: a Sat query allocates its model and
// nothing else, an Unsat one nothing, however many splits, gate checks,
// search nodes and non-linear evaluations it takes. A model returned
// earlier must survive the later queries that reuse the scratch.
func TestSolverQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	sat, unsat := allocQueries()
	for _, tc := range []struct {
		name              string
		q                 []*expr.Expr
		want              Result
		splits, decisions int
		maxAllocs         float64
	}{
		{"sat", sat, Sat, 9, 3, 2}, // the model map and its one group
		{"unsat", unsat, Unsat, 6, 8, 0},
	} {
		s := New(Options{DisableCache: true})
		res, model := s.Check(tc.q) // warm-up: interns the query, fills the split lists
		if res != tc.want {
			t.Fatalf("%s query answered %v, want %v", tc.name, res, tc.want)
		}
		if st := s.Stats(); st.Splits != tc.splits || st.Decisions != tc.decisions {
			t.Fatalf("%s query took %d splits and %d decisions, want %d and %d",
				tc.name, st.Splits, st.Decisions, tc.splits, tc.decisions)
		}
		kept := maps.Clone(model)
		n := testing.AllocsPerRun(100, func() {
			if res, _ := s.Check(tc.q); res != tc.want {
				t.Fatalf("%s query answered %v, want %v", tc.name, res, tc.want)
			}
		})
		if n > tc.maxAllocs {
			t.Errorf("%s query takes %.0f allocations, want at most %.0f", tc.name, n, tc.maxAllocs)
		}
		if !maps.Equal(model, kept) {
			t.Errorf("%s model changed by later queries: %v, was %v", tc.name, model, kept)
		}
	}
}

// allocQueries returns a split-heavy Sat query and an Unsat query that
// reaches search at every leaf.
func allocQueries() (sat, unsat []*expr.Expr) {
	x, y, z, w := v("x"), v("y"), v("z"), v("w")
	// Five disjunctions: nine splits, three decisions, one verified model.
	sat = []*expr.Expr{
		expr.Ge(x, c(0)), expr.Le(x, c(20)),
		expr.Or(expr.Lt(x, c(3)), expr.Gt(x, c(15))),
		expr.Or(expr.Eq(y, expr.Add(x, c(4))), expr.Eq(y, c(7))),
		expr.Or(expr.Lt(z, c(-5)), expr.And(expr.Gt(z, y), expr.Lt(z, c(30)))),
		expr.Or(expr.Ne(w, z), expr.Eq(w, x)),
		expr.Or(expr.Gt(w, c(100)), expr.Lt(w, c(-100))),
		expr.Gt(y, c(10)), expr.Le(w, c(2)),
	}
	// Two disjunctions and a product no box point meets: six splits and
	// eight decisions, every leaf refuted by search.
	unsat = []*expr.Expr{
		expr.Ge(x, c(0)), expr.Le(x, c(9)), expr.Ge(y, c(0)), expr.Le(y, c(9)),
		expr.Or(expr.Lt(x, c(3)), expr.Gt(x, c(6))),
		expr.Or(expr.Eq(y, expr.Mul(x, c(2))), expr.Eq(y, expr.Add(x, c(1)))),
		expr.Eq(expr.Mul(x, y), c(13)),
	}
	return sat, unsat
}

// TestReleasedScratchHoldsNoPointers solves both queries on one scratch and
// releases it: no buffer of a scratch back in the pool may keep an entry,
// atom, expression or variable name of the queries it served reachable.
func TestReleasedScratchHoldsNoPointers(t *testing.T) {
	s := New(Options{DisableCache: true})
	sc := scratchPool.New().(*scratch)
	sat, unsat := allocQueries()
	for _, q := range [][]*expr.Expr{sat, unsat} {
		s.checkOn(context.Background(), sc, emptyPrefix, s.appendInterned(nil, q))
		s.flush(&sc.tally)
	}
	if cap(sc.conj) == 0 || cap(sc.atoms) == 0 || cap(sc.nonlin) == 0 || cap(sc.vars) == 0 {
		t.Fatal("the queries left the scratch's buffers unused")
	}
	putScratch(sc)
	// The test holds the only other reference to sc; nothing else takes
	// from the pool while it reads.
	for name, n := range map[string]int{
		"conj":       nonNil(sc.conj[:cap(sc.conj)]),
		"disj":       nonNil(sc.disj[:cap(sc.disj)]),
		"atoms":      nonNil(sc.atoms[:cap(sc.atoms)]),
		"nonlin":     nonNil(sc.nonlin[:cap(sc.nonlin)]),
		"nonlinVars": nonNilSlices(sc.nonlinVars[:cap(sc.nonlinVars)]),
		"orig":       nonNil(sc.orig[:cap(sc.orig)]),
		"vars":       nonEmpty(sc.vars[:cap(sc.vars)]),
		"tmp":        nonEmpty(sc.tmp[:cap(sc.tmp)]),
		"env":        len(sc.env),
		"point":      len(sc.point),
	} {
		if n != 0 {
			t.Errorf("released scratch keeps %d references in %s", n, name)
		}
	}
}

func nonNil[T any](xs []*T) int {
	n := 0
	for _, x := range xs {
		if x != nil {
			n++
		}
	}
	return n
}

func nonNilSlices(xs [][]string) int {
	n := 0
	for _, x := range xs {
		if x != nil {
			n++
		}
	}
	return n
}

func nonEmpty[S ~[]E, E comparable](xs S) int {
	var zero E
	n := 0
	for _, x := range xs {
		if x != zero {
			n++
		}
	}
	return n
}
