package expr

import (
	"fmt"
	"maps"
	"slices"
)

// Env is a concrete assignment of integer values to variable names.
type Env map[string]int64

// Clone returns an independent copy of the environment (nil stays nil).
func (env Env) Clone() Env { return maps.Clone(env) }

// EvalError describes a failed evaluation (unbound variable or division by
// zero).
type EvalError struct {
	Msg  string
	Expr *Expr
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("expr: %s in %s", e.Msg, e.Expr)
}

// Eval evaluates e under env. Boolean expressions evaluate to 0 or 1.
// It returns an error for unbound variables and division/remainder by zero.
func Eval(e *Expr, env Env) (int64, error) {
	switch e.Kind {
	case KConst, KBool:
		return e.Val, nil
	case KVar:
		v, ok := env[e.Name]
		if !ok {
			return 0, &EvalError{Msg: "unbound variable " + e.Name, Expr: e}
		}
		return v, nil
	case KNeg:
		v, err := Eval(e.Args[0], env)
		return -v, err
	case KNot:
		v, err := Eval(e.Args[0], env)
		if err != nil {
			return 0, err
		}
		return 1 - v, nil
	}

	a, err := Eval(e.Args[0], env)
	if err != nil {
		return 0, err
	}
	// && and || short-circuit so that the right operand of a guarded
	// division (e.g. y != 0 && x/y > 2) is never evaluated when the guard
	// fails.
	switch e.Kind {
	case KAnd:
		if a == 0 {
			return 0, nil
		}
		return Eval(e.Args[1], env)
	case KOr:
		if a != 0 {
			return 1, nil
		}
		return Eval(e.Args[1], env)
	}
	b, err := Eval(e.Args[1], env)
	if err != nil {
		return 0, err
	}
	switch e.Kind {
	case KAdd:
		return a + b, nil
	case KSub:
		return a - b, nil
	case KMul:
		return a * b, nil
	case KDiv:
		if b == 0 {
			return 0, &EvalError{Msg: "division by zero", Expr: e}
		}
		return a / b, nil
	case KMod:
		if b == 0 {
			return 0, &EvalError{Msg: "remainder by zero", Expr: e}
		}
		return a % b, nil
	case KEq, KNe, KLt, KLe, KGt, KGe:
		if cmpFold(e.Kind, a, b) {
			return 1, nil
		}
		return 0, nil
	}
	return 0, &EvalError{Msg: "unknown kind " + e.Kind.String(), Expr: e}
}

// EvalBool evaluates a boolean expression under env.
func EvalBool(e *Expr, env Env) (bool, error) {
	v, err := Eval(e, env)
	return v != 0, err
}

// Substitute returns e with every variable that appears in sub replaced by
// its mapped expression. Unmapped variables are left intact. The result is
// rebuilt through the simplifying constructors, so substituting constants
// folds the tree.
func Substitute(e *Expr, sub map[string]*Expr) *Expr {
	switch e.Kind {
	case KConst, KBool:
		return e
	case KVar:
		if r, ok := sub[e.Name]; ok {
			return r
		}
		return e
	}
	var buf [2]*Expr // operators take at most two operands
	args := buf[:len(e.Args)]
	changed := false
	for i, a := range e.Args {
		args[i] = Substitute(a, sub)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return e
	}
	return Rebuild(e.Kind, args)
}

// Rebuild constructs a node of the given kind from already-built operands,
// going through the simplifying constructors.
func Rebuild(k Kind, args []*Expr) *Expr {
	switch k {
	case KAdd:
		return Add(args[0], args[1])
	case KSub:
		return Sub(args[0], args[1])
	case KMul:
		return Mul(args[0], args[1])
	case KDiv:
		return Div(args[0], args[1])
	case KMod:
		return Mod(args[0], args[1])
	case KNeg:
		return Neg(args[0])
	case KEq, KNe, KLt, KLe, KGt, KGe:
		return compare(k, args[0], args[1])
	case KAnd:
		return And(args[0], args[1])
	case KOr:
		return Or(args[0], args[1])
	case KNot:
		return Not(args[0])
	}
	panic("expr: Rebuild of non-operator kind " + k.String())
}

// Vars returns the sorted list of variable names occurring in e. Each node
// computes its list once and every caller shares it: the list is read-only.
func Vars(e *Expr) []string {
	if p := e.vars.Load(); p != nil {
		return *p
	}
	set := map[string]bool{}
	collectVars(e, set)
	vs := slices.Sorted(maps.Keys(set))
	e.vars.Store(&vs) // a racing first use stores an equal list
	return vs
}

func collectVars(e *Expr, set map[string]bool) {
	if e.Kind == KVar {
		set[e.Name] = true
	}
	for _, a := range e.Args {
		collectVars(a, set)
	}
}

// VarsOf returns the union of variable names across all exprs, sorted, in a
// slice of its own.
func VarsOf(exprs []*Expr) []string {
	set := map[string]bool{}
	for _, e := range exprs {
		for _, v := range Vars(e) {
			set[v] = true
		}
	}
	return slices.Sorted(maps.Keys(set))
}

// RenameVars returns e with every variable renamed through fn. Variables for
// which fn returns the same name are shared, not copied.
func RenameVars(e *Expr, fn func(string) string) *Expr {
	switch e.Kind {
	case KConst, KBool:
		return e
	case KVar:
		if n := fn(e.Name); n != e.Name {
			return Var(n)
		}
		return e
	}
	var buf [2]*Expr
	args := buf[:len(e.Args)]
	changed := false
	for i, a := range e.Args {
		args[i] = RenameVars(a, fn)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return e
	}
	return Rebuild(e.Kind, args)
}

// Size returns the number of nodes in e.
func Size(e *Expr) int {
	n := 1
	for _, a := range e.Args {
		n += Size(a)
	}
	return n
}
