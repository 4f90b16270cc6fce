package solver

import (
	"testing"

	"achilles/internal/expr"
)

// Tests for linearConflict: contradictions between multi-variable linear
// atoms that interval propagation cannot see when the variables are
// individually unbounded. These shapes dominate the Trojan queries over
// shared symbolic state (§3.4).

func TestConflictComplementPair(t *testing.T) {
	x, y := v("x"), v("y")
	checkUnsat(t, []*expr.Expr{expr.Eq(x, y), expr.Ne(x, y)})
	checkUnsat(t, []*expr.Expr{expr.Eq(x, y), expr.Ne(y, x)})
	// Same combination, shifted constant: x - y == 0 and x != y + 0.
	checkUnsat(t, []*expr.Expr{expr.Eq(expr.Sub(x, y), c(0)), expr.Ne(x, y)})
}

func TestConflictDistinctEqualities(t *testing.T) {
	x, y := v("x"), v("y")
	checkUnsat(t, []*expr.Expr{
		expr.Eq(expr.Sub(x, y), c(1)),
		expr.Eq(expr.Sub(x, y), c(2)),
	})
	// Negated orientation: y - x == -1 is the same combination.
	m := checkSat(t, []*expr.Expr{
		expr.Eq(expr.Sub(x, y), c(1)),
		expr.Eq(expr.Sub(y, x), c(-1)),
	})
	if m["x"]-m["y"] != 1 {
		t.Fatalf("bad model %v", m)
	}
}

func TestConflictEmptyBand(t *testing.T) {
	x, y := v("x"), v("y")
	// x - y <= -1 and x - y >= 1: empty band.
	checkUnsat(t, []*expr.Expr{
		expr.Le(expr.Sub(x, y), c(-1)),
		expr.Ge(expr.Sub(x, y), c(1)),
	})
	// Touching band is satisfiable: x - y in [0, 0].
	m := checkSat(t, []*expr.Expr{
		expr.Le(expr.Sub(x, y), c(0)),
		expr.Ge(expr.Sub(x, y), c(0)),
	})
	if m["x"] != m["y"] {
		t.Fatalf("bad model %v", m)
	}
}

func TestConflictEqualityOutsideBand(t *testing.T) {
	x, y := v("x"), v("y")
	// x - y == 5 with x - y <= 3.
	checkUnsat(t, []*expr.Expr{
		expr.Eq(expr.Sub(x, y), c(5)),
		expr.Le(expr.Sub(x, y), c(3)),
	})
	// Order independence: bound first, equality second.
	checkUnsat(t, []*expr.Expr{
		expr.Le(expr.Sub(x, y), c(3)),
		expr.Eq(expr.Sub(x, y), c(5)),
	})
	// And below a lower bound.
	checkUnsat(t, []*expr.Expr{
		expr.Ge(expr.Sub(x, y), c(10)),
		expr.Eq(expr.Sub(x, y), c(5)),
	})
}

func TestConflictSharedStateTrojanShape(t *testing.T) {
	// The exact shape from the Paxos constructed-symbolic-state analysis:
	// the server pins the field to the shared state; the negation demands
	// it differ.
	m1, ballot := v("m1"), v("state_ballot")
	checkUnsat(t, []*expr.Expr{
		expr.Eq(m1, ballot),
		expr.Ne(m1, ballot),
	})
	// Whereas a different field stays satisfiable.
	m2, val := v("m2"), v("state_value")
	mdl := checkSat(t, []*expr.Expr{
		expr.Eq(m1, ballot),
		expr.Ne(m2, val),
	})
	if mdl["m2"] == mdl["state_value"] {
		t.Fatalf("bad model %v", mdl)
	}
}

func TestNoFalseConflicts(t *testing.T) {
	x, y, z := v("x"), v("y"), v("z")
	// Different variable combinations must not be conflated.
	checkSat(t, []*expr.Expr{expr.Eq(x, y), expr.Ne(x, z)})
	// Scaled combinations are distinct keys (2x-2y vs x-y): no false
	// conflict, and the solver still decides via search when bounded.
	checkSat(t, []*expr.Expr{
		expr.Eq(expr.Sub(expr.Mul(c(2), x), expr.Mul(c(2), y)), c(0)),
		expr.Ne(expr.Sub(x, y), c(1)),
		expr.Ge(x, c(0)), expr.Le(x, c(3)), expr.Ge(y, c(0)), expr.Le(y, c(3)),
	})
}

// TestLinearConflictSlowPathNoAlloc pins that the per-combination groups of
// linearConflict's slow path live on the stack: two atoms over one
// combination, with no conflict between them, must not allocate.
func TestLinearConflictSlowPathNoAlloc(t *testing.T) {
	x, y := v("x"), v("y")
	le, _ := linearise(expr.Le(expr.Sub(x, y), c(3)))
	ge, _ := linearise(expr.Ge(expr.Sub(x, y), c(-3)))
	atoms := []*linAtom{le, ge}
	if linearConflict(atoms) {
		t.Fatalf("false conflict on %v", atoms)
	}
	if n := testing.AllocsPerRun(100, func() { linearConflict(atoms) }); n != 0 {
		t.Fatalf("linearConflict allocates %v times per call on a shared combination, want 0", n)
	}
}
