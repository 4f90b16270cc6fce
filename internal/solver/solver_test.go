package solver

import (
	"testing"

	"achilles/internal/expr"
)

func v(n string) *expr.Expr { return expr.Var(n) }
func c(x int64) *expr.Expr  { return expr.Const(x) }
func checkSat(t *testing.T, cs []*expr.Expr) expr.Env {
	t.Helper()
	s := Default()
	res, m := s.Check(cs)
	if res != Sat {
		t.Fatalf("expected sat, got %v for %v", res, cs)
	}
	for _, e := range cs {
		ok, err := expr.EvalBool(e, m)
		if err != nil || !ok {
			t.Fatalf("model %v does not satisfy %s (err=%v)", m, e, err)
		}
	}
	return m
}

func checkUnsat(t *testing.T, cs []*expr.Expr) {
	t.Helper()
	s := Default()
	res, _ := s.Check(cs)
	if res != Unsat {
		t.Fatalf("expected unsat, got %v for %v", res, cs)
	}
}

func TestTrivial(t *testing.T) {
	checkSat(t, nil)
	checkSat(t, []*expr.Expr{expr.True()})
	checkUnsat(t, []*expr.Expr{expr.False()})
}

func TestPaperExample(t *testing.T) {
	// From §3.2 of the paper: λ > 0 ∧ λ < -5 is unsat; λ > 0 ∧ λ < 5 is sat.
	lam := v("lambda")
	checkUnsat(t, []*expr.Expr{expr.Gt(lam, c(0)), expr.Lt(lam, c(-5))})
	m := checkSat(t, []*expr.Expr{expr.Gt(lam, c(0)), expr.Lt(lam, c(5))})
	if m["lambda"] <= 0 || m["lambda"] >= 5 {
		t.Fatalf("model out of range: %v", m)
	}
}

func TestIntervalConjunction(t *testing.T) {
	x := v("x")
	checkSat(t, []*expr.Expr{expr.Ge(x, c(10)), expr.Le(x, c(10))})
	checkUnsat(t, []*expr.Expr{expr.Ge(x, c(11)), expr.Le(x, c(10))})
	m := checkSat(t, []*expr.Expr{expr.Gt(x, c(-3)), expr.Lt(x, c(-1))})
	if m["x"] != -2 {
		t.Fatalf("only -2 possible, got %v", m)
	}
}

func TestEqualityChain(t *testing.T) {
	x, y, z := v("x"), v("y"), v("z")
	m := checkSat(t, []*expr.Expr{
		expr.Eq(x, expr.Add(y, c(1))),
		expr.Eq(y, expr.Add(z, c(1))),
		expr.Eq(z, c(5)),
	})
	if m["x"] != 7 || m["y"] != 6 {
		t.Fatalf("chain solved wrong: %v", m)
	}
}

func TestChecksumBackSubstitution(t *testing.T) {
	// crc = a + b + cc with a,b,cc bounded: the shape of the KV/FSP
	// checksum constraints.
	a, b, cc, crc := v("a"), v("b"), v("c"), v("crc")
	bounds := []*expr.Expr{
		expr.Ge(a, c(0)), expr.Lt(a, c(256)),
		expr.Ge(b, c(0)), expr.Lt(b, c(256)),
		expr.Ge(cc, c(0)), expr.Lt(cc, c(256)),
	}
	cs := append(bounds,
		expr.Eq(crc, expr.Add(a, expr.Add(b, cc))),
		expr.Eq(a, c(10)), expr.Eq(b, c(20)), expr.Eq(cc, c(30)))
	m := checkSat(t, cs)
	if m["crc"] != 60 {
		t.Fatalf("crc should be forced to 60, got %v", m)
	}
	// Inconsistent checksum must be unsat.
	cs = append(bounds,
		expr.Eq(crc, expr.Add(a, expr.Add(b, cc))),
		expr.Eq(a, c(10)), expr.Eq(b, c(20)), expr.Eq(cc, c(30)),
		expr.Eq(crc, c(61)))
	checkUnsat(t, cs)
}

func TestCoefficients(t *testing.T) {
	x, y := v("x"), v("y")
	// 2x + 3y == 12, 0<=x<=10, 0<=y<=10
	m := checkSat(t, []*expr.Expr{
		expr.Eq(expr.Add(expr.Mul(c(2), x), expr.Mul(c(3), y)), c(12)),
		expr.Ge(x, c(0)), expr.Le(x, c(10)),
		expr.Ge(y, c(0)), expr.Le(y, c(10)),
	})
	if 2*m["x"]+3*m["y"] != 12 {
		t.Fatalf("bad model %v", m)
	}
	// 2x == 7 has no integer solution.
	checkUnsat(t, []*expr.Expr{
		expr.Eq(expr.Mul(c(2), x), c(7)),
		expr.Ge(x, c(-100)), expr.Le(x, c(100)),
	})
}

func TestDisequalityBoundaries(t *testing.T) {
	x := v("x")
	// x in [5,6], x != 5, x != 6 => unsat
	checkUnsat(t, []*expr.Expr{
		expr.Ge(x, c(5)), expr.Le(x, c(6)),
		expr.Ne(x, c(5)), expr.Ne(x, c(6)),
	})
	// x in [5,7], x != 5, x != 7 => x = 6
	m := checkSat(t, []*expr.Expr{
		expr.Ge(x, c(5)), expr.Le(x, c(7)),
		expr.Ne(x, c(5)), expr.Ne(x, c(7)),
	})
	if m["x"] != 6 {
		t.Fatalf("want 6, got %v", m)
	}
}

func TestDisjunction(t *testing.T) {
	x := v("x")
	// (x < 0 || x > 100) && 0 <= x <= 100 => unsat
	checkUnsat(t, []*expr.Expr{
		expr.Or(expr.Lt(x, c(0)), expr.Gt(x, c(100))),
		expr.Ge(x, c(0)), expr.Le(x, c(100)),
	})
	// (x < 0 || x > 100) && x <= 100 => x < 0
	m := checkSat(t, []*expr.Expr{
		expr.Or(expr.Lt(x, c(0)), expr.Gt(x, c(100))),
		expr.Le(x, c(100)),
	})
	if m["x"] >= 0 {
		t.Fatalf("want negative, got %v", m)
	}
}

func TestNestedDisjunctions(t *testing.T) {
	x, y := v("x"), v("y")
	// (x=1 || x=2) && (y=3 || y=4) && x+y=6 => x=2,y=4
	m := checkSat(t, []*expr.Expr{
		expr.Or(expr.Eq(x, c(1)), expr.Eq(x, c(2))),
		expr.Or(expr.Eq(y, c(3)), expr.Eq(y, c(4))),
		expr.Eq(expr.Add(x, y), c(6)),
	})
	if m["x"]+m["y"] != 6 {
		t.Fatalf("bad model %v", m)
	}
	checkUnsat(t, []*expr.Expr{
		expr.Or(expr.Eq(x, c(1)), expr.Eq(x, c(2))),
		expr.Or(expr.Eq(y, c(3)), expr.Eq(y, c(4))),
		expr.Eq(expr.Add(x, y), c(100)),
	})
}

func TestKVTrojanQueryShape(t *testing.T) {
	// The §2.1 working example: the server accepts READ with address < 100
	// (signed, no lower check); the client only generates 0 <= address < 100.
	// Trojan query: server path ∧ negation of the client's address range.
	addr := v("m_address")
	serverPath := []*expr.Expr{expr.Lt(addr, c(100))}
	negClient := expr.Or(expr.Lt(addr, c(0)), expr.Ge(addr, c(100)))
	m := checkSat(t, append(serverPath, negClient))
	if m["m_address"] >= 0 {
		t.Fatalf("trojan address must be negative, got %v", m)
	}
	// With the fixed server (address >= 0 checked) there is no Trojan.
	fixed := []*expr.Expr{expr.Lt(addr, c(100)), expr.Ge(addr, c(0))}
	checkUnsat(t, append(fixed, negClient))
}

func TestUnboundedSat(t *testing.T) {
	// A single unbounded variable: boundary heuristics must still find a
	// model.
	x := v("x")
	m := checkSat(t, []*expr.Expr{expr.Gt(x, c(1000))})
	if m["x"] <= 1000 {
		t.Fatalf("bad model %v", m)
	}
}

func TestNonLinear(t *testing.T) {
	x, y := v("x"), v("y")
	// x*y == 12 with small bounds: solved by enumeration + verification.
	m := checkSat(t, []*expr.Expr{
		expr.Eq(expr.Mul(x, y), c(12)),
		expr.Ge(x, c(1)), expr.Le(x, c(12)),
		expr.Ge(y, c(1)), expr.Le(y, c(12)),
	})
	if m["x"]*m["y"] != 12 {
		t.Fatalf("bad model %v", m)
	}
	// x % 10 == 3 with x in [20, 29] => x = 23.
	m = checkSat(t, []*expr.Expr{
		expr.Eq(expr.Mod(x, c(10)), c(3)),
		expr.Ge(x, c(20)), expr.Le(x, c(29)),
	})
	if m["x"] != 23 {
		t.Fatalf("want 23, got %v", m)
	}
	checkUnsat(t, []*expr.Expr{
		expr.Eq(expr.Mod(x, c(10)), c(3)),
		expr.Ge(x, c(24)), expr.Le(x, c(29)),
		expr.Ne(x, c(24)), // kill nothing relevant; 33 not in range anyway
		expr.Lt(x, c(33)),
	})
}

func TestBudgetUnknown(t *testing.T) {
	// Force Unknown: equality over two huge-domain vars where boundary
	// heuristics fail and enumeration is impossible.
	s := New(Options{MaxDecisions: 10, MaxEnumDomain: 4})
	x, y := v("x"), v("y")
	res, _ := s.Check([]*expr.Expr{
		expr.Eq(expr.Mul(x, x), expr.Add(expr.Mul(y, y), c(123456789))),
		expr.Gt(x, c(1_000_000)), expr.Gt(y, c(1_000_000)),
	})
	if res == Sat {
		t.Fatalf("should not find a model with budget 10")
	}
	if s.Stats().Unknowns == 0 && res == Unknown {
		t.Fatalf("unknown counter not bumped")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := Default()
	x := v("x")
	s.Check([]*expr.Expr{expr.Eq(x, c(5))})
	s.Check([]*expr.Expr{expr.Eq(x, c(6))})
	if s.Stats().Queries != 2 {
		t.Fatalf("queries = %d", s.Stats().Queries)
	}
	// A scope counts from zero, and its queries reach its parent too.
	sc := s.Scoped()
	if sc.Stats().Queries != 0 {
		t.Fatalf("a fresh scope counts %d queries", sc.Stats().Queries)
	}
	sc.Check([]*expr.Expr{expr.Eq(x, c(7))})
	if sc.Stats().Queries != 1 || s.Stats().Queries != 3 {
		t.Fatalf("scope counts %d queries and its parent %d, want 1 and 3", sc.Stats().Queries, s.Stats().Queries)
	}
}

func TestModelCoversAllVars(t *testing.T) {
	m := checkSat(t, []*expr.Expr{
		expr.Lt(v("a"), v("b")),
		expr.Lt(v("b"), v("c")),
		expr.Ge(v("a"), c(0)), expr.Le(v("c"), c(3)),
	})
	for _, name := range []string{"a", "b", "c"} {
		if _, ok := m[name]; !ok {
			t.Fatalf("model missing %s: %v", name, m)
		}
	}
}

func TestLineariseForms(t *testing.T) {
	x, y := v("x"), v("y")
	// (2x - 3y + 4) >= (y - 1)  =>  -2x + 4y - 5 <= 0
	e := expr.Ge(expr.Add(expr.Sub(expr.Mul(c(2), x), expr.Mul(c(3), y)), c(4)), expr.Sub(y, c(1)))
	la, ok := linearise(e)
	if !ok {
		t.Fatal("should linearise")
	}
	if la.op != opLe {
		t.Fatalf("op = %v", la.op)
	}
	coeff := map[string]int64{}
	for i, name := range la.vars {
		coeff[name] = la.coeffs[i]
	}
	if coeff["x"] != -2 || coeff["y"] != 4 || la.c != -5 {
		t.Fatalf("got coeffs %v c=%d", coeff, la.c)
	}
	if _, ok := linearise(expr.Eq(expr.Mul(x, y), c(1))); ok {
		t.Fatal("x*y should not linearise")
	}
	if _, ok := linearise(expr.Eq(expr.Div(x, c(2)), c(1))); ok {
		t.Fatal("x/2 should not linearise")
	}
	if _, ok := linearise(expr.Add(x, y)); ok {
		t.Fatal("non-comparison should not linearise")
	}
}
