package solver_test

// Pin of the conjunction kernel's exact output. The reference solver shares
// propagate, propagateAtom, search and finish with the fast path on purpose
// (reference.go), so the differential suite cannot see a change to them: both
// sides would drift together. This digest can. It folds every verdict, model
// and per-query work counter of the differential corpus into one hash, so a
// kernel rewrite that changes which variable is decided first, the order its
// candidates are tried in, or how many propagation steps a query takes fails
// here even when the verdicts still agree with the reference.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"achilles/internal/expr"
	"achilles/internal/fuzz"
	"achilles/internal/solver"
)

// kernelDigest is the SHA-256 of the corpus walk below. A change that keeps
// the kernel's output must keep it; a deliberate verdict or model change
// bumps solver.Version and re-pins it in the same change.
const kernelDigest = "38679e5ee5211bbc30a29c520bbfa9de158b51c5b31f4b98e84839579803da98"

// TestKernelFingerprint walks the differential corpus (same seed, same
// generator loop as TestSolverDifferential) with a fresh cache-disabled
// solver per formula, so each query's counters are its own, and hashes each
// formula's index, verdict, sorted model and Decisions, Propagations, Splits
// and Verified.
func TestKernelFingerprint(t *testing.T) {
	opts := diffOpts
	opts.DisableCache = true
	r := rand.New(rand.NewSource(diffSeed))
	gen := fuzz.DefaultFormulaOptions()
	h := sha256.New()
	for i := 0; i < 10000; i++ {
		o := gen
		o.Nonlinear = i%4 == 3
		f := fuzz.Formula(r, o)
		s := solver.New(opts)
		res, model := s.Check(f)
		fmt.Fprintf(h, "%d %v", i, res)
		for _, k := range slices.Sorted(maps.Keys(model)) {
			fmt.Fprintf(h, " %s=%d", k, model[k])
		}
		st := s.Stats()
		fmt.Fprintf(h, " d=%d p=%d s=%d v=%d\n", st.Decisions, st.Propagations, st.Splits, st.Verified)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != kernelDigest {
		t.Fatalf("kernel fingerprint %s, pinned %s: a kernel change moved a verdict, model or work counter", got, kernelDigest)
	}
}

// TestPropagationRoundCap pins that Stats.RoundCaps observes the propagation
// round cap. The cycle x < y ∧ y < z ∧ z < x shares no combination, so
// linearConflict misses it, and each round narrows the full domains by one:
// propagation stops at the cap instead of emptying a domain, and search over
// the still huge domains can only answer Unknown.
func TestPropagationRoundCap(t *testing.T) {
	x, y, z := expr.Var("x"), expr.Var("y"), expr.Var("z")
	s := solver.Default()
	if res, _ := s.Check([]*expr.Expr{expr.Lt(x, y), expr.Lt(y, z), expr.Lt(z, x)}); res != solver.Unknown {
		t.Fatalf("cycle answered %v, want unknown", res)
	}
	if got := s.Stats().RoundCaps; got != 1 {
		t.Fatalf("RoundCaps = %d after the cycle, want 1", got)
	}
	if res, _ := s.Check([]*expr.Expr{expr.Lt(x, y), expr.Lt(y, expr.Const(3)), expr.Ge(x, expr.Const(0))}); res != solver.Sat {
		t.Fatalf("bounded chain answered %v, want sat", res)
	}
	if got := s.Stats().RoundCaps; got != 1 {
		t.Fatalf("a bounded chain hit the round cap: RoundCaps = %d, want 1", got)
	}
}
