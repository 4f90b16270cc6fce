package expr

import (
	"testing"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		name string
		got  *Expr
		want int64
	}{
		{"add", Add(Const(2), Const(3)), 5},
		{"sub", Sub(Const(2), Const(3)), -1},
		{"mul", Mul(Const(4), Const(3)), 12},
		{"div", Div(Const(7), Const(2)), 3},
		{"div-neg", Div(Const(-7), Const(2)), -3},
		{"mod", Mod(Const(7), Const(3)), 1},
		{"mod-neg", Mod(Const(-7), Const(3)), -1},
		{"neg", Neg(Const(5)), -5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !c.got.IsConst() {
				t.Fatalf("not folded to constant: %s", c.got)
			}
			if c.got.Val != c.want {
				t.Fatalf("got %d, want %d", c.got.Val, c.want)
			}
		})
	}
}

func TestIdentitySimplification(t *testing.T) {
	x := Var("x")
	cases := []struct {
		name string
		got  *Expr
		want *Expr
	}{
		{"add-zero-r", Add(x, Const(0)), x},
		{"add-zero-l", Add(Const(0), x), x},
		{"sub-zero", Sub(x, Const(0)), x},
		{"sub-self", Sub(x, x), Const(0)},
		{"mul-one-r", Mul(x, Const(1)), x},
		{"mul-one-l", Mul(Const(1), x), x},
		{"mul-zero", Mul(x, Const(0)), Const(0)},
		{"div-one", Div(x, Const(1)), x},
		{"neg-neg", Neg(Neg(x)), x},
		{"and-true", And(True(), x.lt0()), x.lt0()},
		{"and-false", And(False(), x.lt0()), False()},
		{"or-false", Or(False(), x.lt0()), x.lt0()},
		{"or-true", Or(True(), x.lt0()), True()},
		{"and-dup", And(x.lt0(), x.lt0()), x.lt0()},
		{"or-dup", Or(x.lt0(), x.lt0()), x.lt0()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.got != c.want {
				t.Fatalf("got %s, want %s", c.got, c.want)
			}
		})
	}
}

// lt0 is a test helper producing a non-literal boolean expression.
func (e *Expr) lt0() *Expr { return Lt(e, Const(0)) }

func TestComparisonFolding(t *testing.T) {
	x := Var("x")
	if !Lt(Const(1), Const(2)).IsTrue() {
		t.Error("1 < 2 should fold to true")
	}
	if !Ge(Const(1), Const(2)).IsFalse() {
		t.Error("1 >= 2 should fold to false")
	}
	if !Eq(x, x).IsTrue() {
		t.Error("x == x should fold to true")
	}
	if !Ne(x, x).IsFalse() {
		t.Error("x != x should fold to false")
	}
	if !Le(x, x).IsTrue() {
		t.Error("x <= x should fold to true")
	}
	if !Lt(x, x).IsFalse() {
		t.Error("x < x should fold to false")
	}
}

func TestNotPushdown(t *testing.T) {
	x, y := Var("x"), Var("y")
	cases := []struct {
		got, want *Expr
	}{
		{Not(Lt(x, y)), Ge(x, y)},
		{Not(Le(x, y)), Gt(x, y)},
		{Not(Gt(x, y)), Le(x, y)},
		{Not(Ge(x, y)), Lt(x, y)},
		{Not(Eq(x, y)), Ne(x, y)},
		{Not(Ne(x, y)), Eq(x, y)},
		{Not(True()), False()},
		{Not(False()), True()},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %s, want %s", c.got, c.want)
		}
	}
	// Double negation through a non-comparison boolean.
	conj := And(Lt(x, y), Gt(x, Const(0)))
	if Not(Not(conj)) != conj {
		t.Errorf("double negation not eliminated: %s", Not(Not(conj)))
	}
}

func TestEval(t *testing.T) {
	x, y := Var("x"), Var("y")
	env := Env{"x": 7, "y": -3}
	e := Add(Mul(x, Const(2)), Neg(y)) // 2x - y = 17
	v, err := Eval(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if v != 17 {
		t.Fatalf("got %d, want 17", v)
	}
	b, err := EvalBool(And(Lt(y, x), Ne(x, Const(0))), env)
	if err != nil {
		t.Fatal(err)
	}
	if !b {
		t.Fatal("expected true")
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := Eval(Var("missing"), Env{}); err == nil {
		t.Error("unbound variable should error")
	}
	if _, err := Eval(Div(Var("x"), Var("y")), Env{"x": 1, "y": 0}); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := Eval(Mod(Var("x"), Var("y")), Env{"x": 1, "y": 0}); err == nil {
		t.Error("remainder by zero should error")
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// The right operand divides by zero; short-circuiting must skip it.
	x := Var("x")
	guarded := And(Ne(x, Const(0)), Gt(Div(Const(10), x), Const(1)))
	b, err := EvalBool(guarded, Env{"x": 0})
	if err != nil {
		t.Fatalf("short-circuit And evaluated rhs: %v", err)
	}
	if b {
		t.Fatal("expected false")
	}
	orG := Or(Eq(x, Const(0)), Gt(Div(Const(10), x), Const(1)))
	b, err = EvalBool(orG, Env{"x": 0})
	if err != nil {
		t.Fatalf("short-circuit Or evaluated rhs: %v", err)
	}
	if !b {
		t.Fatal("expected true")
	}
}

func TestSubstitute(t *testing.T) {
	x, y := Var("x"), Var("y")
	e := Add(x, Mul(y, Const(3)))
	got := Substitute(e, map[string]*Expr{"x": Const(1), "y": Const(2)})
	if !got.IsConst() || got.Val != 7 {
		t.Fatalf("got %s, want 7", got)
	}
	// Partial substitution keeps the other variable.
	got = Substitute(e, map[string]*Expr{"y": Const(0)})
	if got != x {
		t.Fatalf("got %s, want x", got)
	}
	// Substituting a variable by another expression.
	got = Substitute(Lt(x, Const(5)), map[string]*Expr{"x": Add(y, Const(1))})
	want := Lt(Add(y, Const(1)), Const(5))
	if got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

func TestVars(t *testing.T) {
	e := And(Lt(Var("b"), Var("a")), Eq(Var("c"), Add(Var("a"), Const(1))))
	got := Vars(e)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRenameVars(t *testing.T) {
	e := Add(Var("x"), Var("y"))
	got := RenameVars(e, func(n string) string { return "c_" + n })
	want := Add(Var("c_x"), Var("c_y"))
	if got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	// Identity rename shares the node.
	if RenameVars(e, func(n string) string { return n }) != e {
		t.Fatal("identity rename should return the same node")
	}
}

func TestString(t *testing.T) {
	x, y := Var("x"), Var("y")
	cases := []struct {
		e    *Expr
		want string
	}{
		{Add(x, Mul(y, Const(2))), "x + y * 2"},
		{Mul(Add(x, y), Const(2)), "(x + y) * 2"},
		{Sub(x, Sub(y, Const(1))), "x - (y - 1)"},
		{And(Lt(x, y), Ne(x, Const(0))), "x < y && x != 0"},
		{Or(And(Lt(x, y), Ne(x, Const(0))), Eq(y, Const(2))), "x < y && x != 0 || y == 2"},
		{Neg(x), "-x"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

// TestHashAndEqual: structurally equal expressions are one node, so they
// compare and hash alike as map keys, and different ones are not.
func TestHashAndEqual(t *testing.T) {
	a := Add(Var("x"), Const(1))
	b := Add(Var("x"), Const(1))
	if a != b {
		t.Error("structurally equal expressions must be one node")
	}
	c := Add(Var("x"), Const(2))
	if a == c {
		t.Error("different expressions are one node")
	}
}

func TestAndAllOrAll(t *testing.T) {
	if !AndAll(nil).IsTrue() {
		t.Error("empty conjunction should be true")
	}
	if !OrAll(nil).IsFalse() {
		t.Error("empty disjunction should be false")
	}
	x := Var("x")
	cs := []*Expr{Gt(x, Const(0)), Lt(x, Const(10))}
	if got := AndAll(cs); got.Kind != KAnd {
		t.Errorf("got %s", got)
	}
}

func TestSize(t *testing.T) {
	if Size(Const(1)) != 1 {
		t.Error("const size")
	}
	if Size(Add(Var("x"), Const(1))) != 3 {
		t.Error("add size")
	}
}
