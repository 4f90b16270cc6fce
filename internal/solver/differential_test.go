package solver_test

// Differential gate for the solver fast path: the CDCL+interning solver and
// the pinned naive-DPLL reference (reference.go) must agree on Sat/Unsat/
// Unknown and on returned models over a large corpus of random formulas.
// The suite runs the shared-state solver deliberately — one Solver instance
// across all queries, and concurrently in the sharded variant — so the
// cross-query machinery (arena, propOK memo, verdict cache, prefix handles)
// is exactly what is being exercised against the stateless reference.

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"achilles/internal/expr"
	"achilles/internal/fuzz"
	"achilles/internal/solver"
)

// diffOpts keeps individual queries cheap enough for a 10k-formula corpus
// while still reaching the Unknown paths (small enumeration cap). Fast
// solver and reference share the budgets, so verdicts remain comparable.
var diffOpts = solver.Options{MaxDecisions: 4000, MaxEnumDomain: 256}

// diffSeed pins the corpus; the suite is fully deterministic.
const diffSeed = 20140301 // ASPLOS'14

// verifyModel checks that a Sat model satisfies every top-level constraint.
// A model only assigns the variables of the satisfied disjuncts; the other
// variables are unconstrained there, so they are completed with zeros before
// evaluation (any completion of a satisfying partial assignment satisfies
// the formula).
func verifyModel(t *testing.T, f []*expr.Expr, model expr.Env) {
	t.Helper()
	env := model.Clone()
	for _, v := range expr.VarsOf(f) {
		if _, ok := env[v]; !ok {
			env[v] = 0
		}
	}
	for _, c := range f {
		v, err := expr.EvalBool(c, env)
		if err != nil || !v {
			t.Fatalf("model %v does not satisfy %v (err=%v)", model, c, err)
		}
	}
}

// checkAgainstReference solves one formula on both solvers and fails the
// test on any verdict or model divergence.
func checkAgainstReference(t *testing.T, s *solver.Solver, ref *solver.Reference, f []*expr.Expr) {
	t.Helper()
	res, model := s.Check(f)
	refRes, refModel := ref.Check(f)
	if res != refRes {
		t.Fatalf("verdict divergence on %v:\n  fast      = %v\n  reference = %v", f, res, refRes)
	}
	if res == solver.Sat {
		if !maps.Equal(model, refModel) {
			t.Fatalf("model divergence on %v:\n  fast      = %v\n  reference = %v", f, model, refModel)
		}
		verifyModel(t, f, model)
	}
	// Re-ask the fast solver: the verdict cache must reproduce the answer.
	res2, model2 := s.Check(f)
	if res2 != res || (res == solver.Sat && !maps.Equal(model, model2)) {
		t.Fatalf("cache instability on %v: first (%v, %v), second (%v, %v)", f, res, model, res2, model2)
	}
}

// TestSolverDifferential is the standing ~10k-formula differential suite.
func TestSolverDifferential(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	s := solver.New(diffOpts)
	ref := solver.NewReference(diffOpts)
	r := rand.New(rand.NewSource(diffSeed))
	opts := fuzz.DefaultFormulaOptions()
	for i := 0; i < n; i++ {
		o := opts
		o.Nonlinear = i%4 == 3 // every fourth formula exercises the non-linear fallback
		f := fuzz.Formula(r, o)
		checkAgainstReference(t, s, ref, f)
	}
	st := s.Stats()
	if st.Interned == 0 || st.CacheHits == 0 {
		t.Fatalf("fast path not exercised: stats %+v", st)
	}
}

// TestSolverDifferentialPrefix differentially tests incremental prefix
// solving: a prefix built constraint-by-constraint plus the remaining
// conditions must answer exactly like the reference on the materialised
// slice, and Prefix.Implies may only ever short-circuit to the solver's own
// verdict. Each prefix shape — one final condition, and the suffix after a
// random cut — runs on its own solver, so neither answers from the other's
// cache, and each solver's exported cache keys must be exactly queryKey of
// the formulas it was asked: cache files written before keys were built
// from prefixes keep hitting.
func TestSolverDifferentialPrefix(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 500
	}
	single := solver.New(diffOpts)
	multi := solver.New(diffOpts)
	ref := solver.NewReference(diffOpts)
	r := rand.New(rand.NewSource(diffSeed + 1))
	opts := fuzz.DefaultFormulaOptions()
	opts.MaxConstraints = 5
	ctx := context.Background()
	asked := map[string]bool{}
	for i := 0; i < n; i++ {
		f := fuzz.Formula(r, opts)
		if len(f) < 2 {
			continue
		}
		asked[solver.QueryKey(f)] = true
		p := single.NewPrefix()
		for _, c := range f[:len(f)-1] {
			p = p.Extend(c)
		}
		cond := f[len(f)-1]
		refRes, refModel := ref.Check(f)

		res, model := single.CheckPrefixCtx(ctx, p, cond)
		if res != refRes {
			t.Fatalf("prefix verdict divergence on %v:\n  prefix    = %v\n  reference = %v", f, res, refRes)
		}
		if res == solver.Sat && !maps.Equal(model, refModel) {
			t.Fatalf("prefix model divergence on %v:\n  prefix    = %v\n  reference = %v", f, model, refModel)
		}

		// Multi-condition variant: split the suffix at a random point.
		cut := 1 + r.Intn(len(f)-1)
		pp := multi.NewPrefix()
		for _, c := range f[:cut] {
			pp = pp.Extend(c)
		}
		allRes, allModel := multi.CheckPrefixCtx(ctx, pp, f[cut:]...)
		if allRes != refRes {
			t.Fatalf("prefix-all verdict divergence on %v (cut %d): prefix-all = %v, reference = %v", f, cut, allRes, refRes)
		}
		if allRes == solver.Sat && !maps.Equal(allModel, refModel) {
			t.Fatalf("prefix-all model divergence on %v (cut %d): prefix-all = %v, reference = %v", f, cut, allModel, refModel)
		}

		// Implies may only answer when it matches the full solve's verdict.
		if holds, ok := p.Implies(cond); ok {
			wantHolds := refRes != solver.Unsat
			if holds != wantHolds {
				t.Fatalf("Implies(%v) = %v on prefix %v, but reference verdict is %v", cond, holds, f[:len(f)-1], refRes)
			}
		}
	}
	for name, s := range map[string]*solver.Solver{"single-condition": single, "multi-condition": multi} {
		entries, err := s.ExportCache()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(asked) {
			t.Errorf("%s prefixes: exported %d cache keys for %d distinct formulas", name, len(entries), len(asked))
		}
		for _, e := range entries {
			if !asked[e.Key] {
				t.Fatalf("%s prefixes: exported key %q is not queryKey of any formula asked", name, e.Key)
			}
		}
	}
}

// TestSolverDifferentialConcurrent shards the corpus over 8 goroutines that
// share ONE fast solver — the configuration the analysis engines run — and
// compares every query against per-goroutine references. Run under -race in
// CI, this is the concurrency gate for the arena/propOK state.
func TestSolverDifferentialConcurrent(t *testing.T) {
	const workers = 8
	n := 500 // per worker
	if testing.Short() {
		n = 100
	}
	s := solver.New(diffOpts)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ref := solver.NewReference(diffOpts)
			r := rand.New(rand.NewSource(diffSeed + 100 + int64(w)))
			opts := fuzz.DefaultFormulaOptions()
			for i := 0; i < n; i++ {
				f := fuzz.Formula(r, opts)
				res, model := s.Check(f)
				refRes, refModel := ref.Check(f)
				if res != refRes {
					errc <- fmt.Errorf("worker %d: verdict divergence on %v: fast %v, reference %v", w, f, res, refRes)
					return
				}
				if res == solver.Sat && !maps.Equal(model, refModel) {
					errc <- fmt.Errorf("worker %d: model divergence on %v: fast %v, reference %v", w, f, model, refModel)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// FuzzSolverDifferential is the native fuzz target: the fuzzer explores
// generator seeds, each deriving one formula checked on both solvers.
// Run with: go test -run=^$ -fuzz=FuzzSolverDifferential ./internal/solver
func FuzzSolverDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(1))
	f.Add(int64(diffSeed), uint8(2))
	f.Add(int64(-7), uint8(3))
	s := solver.New(diffOpts)
	ref := solver.NewReference(diffOpts)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		opts := fuzz.DefaultFormulaOptions()
		opts.Nonlinear = shape&1 != 0
		if shape&2 != 0 {
			opts.Vars = 2
			opts.ConstRange = 3
		}
		formula := fuzz.Formula(r, opts)
		res, model := s.Check(formula)
		refRes, refModel := ref.Check(formula)
		if res != refRes {
			t.Fatalf("verdict divergence on %v: fast %v, reference %v", formula, res, refRes)
		}
		if res == solver.Sat {
			if !maps.Equal(model, refModel) {
				t.Fatalf("model divergence on %v: fast %v, reference %v", formula, model, refModel)
			}
			verifyModel(t, formula, model)
		}
	})
}
