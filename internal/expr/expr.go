// Package expr implements the immutable symbolic expression trees that the
// Achilles toolchain uses to represent message grammars and path constraints.
//
// There are two sorts: 64-bit signed integers and booleans. All arithmetic is
// exact int64 arithmetic (the node-language models operate on abstract message
// fields, not on machine words; wrap-around is not modelled). Expressions are
// built through constructor functions (Add, Lt, And, ...) that perform local
// simplification — constant folding, identity elimination, and negation
// push-down — so that the solver and the predicate machinery always see
// lightly canonicalised trees.
//
// Expressions are immutable after construction and safe for concurrent use.
// Every node carries a structural hash computed at construction time, making
// equality checks and set-membership cheap.
package expr

import "strconv"

// Kind identifies the operator of an expression node.
type Kind uint8

// Expression node kinds. Comparison operators produce booleans from integer
// operands; And/Or/Not operate on booleans; the remaining binary operators
// operate on integers.
const (
	KConst Kind = iota // integer literal (Val)
	KBool              // boolean literal (Val is 0 or 1)
	KVar               // integer variable (Name)

	KAdd // Args[0] + Args[1]
	KSub // Args[0] - Args[1]
	KMul // Args[0] * Args[1]
	KDiv // Args[0] / Args[1] (Go truncated division)
	KMod // Args[0] % Args[1] (Go truncated remainder)
	KNeg // -Args[0]

	KEq // Args[0] == Args[1]
	KNe // Args[0] != Args[1]
	KLt // Args[0] <  Args[1]
	KLe // Args[0] <= Args[1]
	KGt // Args[0] >  Args[1]
	KGe // Args[0] >= Args[1]

	KAnd // Args[0] && Args[1]
	KOr  // Args[0] || Args[1]
	KNot // !Args[0]
)

// String returns the operator spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KConst:
		return "const"
	case KBool:
		return "bool"
	case KVar:
		return "var"
	case KAdd:
		return "+"
	case KSub:
		return "-"
	case KMul:
		return "*"
	case KDiv:
		return "/"
	case KMod:
		return "%"
	case KNeg:
		return "neg"
	case KEq:
		return "=="
	case KNe:
		return "!="
	case KLt:
		return "<"
	case KLe:
		return "<="
	case KGt:
		return ">"
	case KGe:
		return ">="
	case KAnd:
		return "&&"
	case KOr:
		return "||"
	case KNot:
		return "!"
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Expr is one immutable expression node. Construct values only through the
// package constructors; direct literal construction bypasses simplification
// and hashing and will confuse the solver.
type Expr struct {
	Kind Kind
	Val  int64   // literal value for KConst/KBool
	Name string  // variable name for KVar
	Args []*Expr // operands
	hash uint64
}

// Interned singletons for the boolean literals and small integers.
var (
	trueExpr  = newNode(&Expr{Kind: KBool, Val: 1})
	falseExpr = newNode(&Expr{Kind: KBool, Val: 0})
)

const smallConstCacheSize = 257 // -1 .. 255, the byte-heavy protocol range

var smallConsts [smallConstCacheSize]*Expr

func init() {
	for i := range smallConsts {
		smallConsts[i] = newNode(&Expr{Kind: KConst, Val: int64(i - 1)})
	}
}

// newNode finalises a node by computing its structural hash.
func newNode(e *Expr) *Expr {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(e.Kind))
	mix(uint64(e.Val))
	for i := 0; i < len(e.Name); i++ {
		mix(uint64(e.Name[i]))
	}
	for _, a := range e.Args {
		mix(a.hash)
	}
	e.hash = h
	return e
}

// Const returns the integer literal v.
func Const(v int64) *Expr {
	if v >= -1 && v < smallConstCacheSize-1 {
		return smallConsts[v+1]
	}
	return newNode(&Expr{Kind: KConst, Val: v})
}

// Bool returns the boolean literal b.
func Bool(b bool) *Expr {
	if b {
		return trueExpr
	}
	return falseExpr
}

// True and False return the boolean literals.
func True() *Expr  { return trueExpr }
func False() *Expr { return falseExpr }

// Var returns the integer variable named name.
func Var(name string) *Expr {
	return newNode(&Expr{Kind: KVar, Name: name})
}

// IsConst reports whether e is an integer literal.
func (e *Expr) IsConst() bool { return e.Kind == KConst }

// IsBoolLit reports whether e is a boolean literal.
func (e *Expr) IsBoolLit() bool { return e.Kind == KBool }

// IsTrue reports whether e is the literal true.
func (e *Expr) IsTrue() bool { return e.Kind == KBool && e.Val == 1 }

// IsFalse reports whether e is the literal false.
func (e *Expr) IsFalse() bool { return e.Kind == KBool && e.Val == 0 }

// Hash returns the structural hash of e.
func (e *Expr) Hash() uint64 { return e.hash }

// Equal reports structural equality of a and b.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.hash != b.hash || a.Kind != b.Kind || a.Val != b.Val || a.Name != b.Name || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Equal(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// Add returns a + b, folding constants and eliminating zero operands.
func Add(a, b *Expr) *Expr {
	if a.IsConst() && b.IsConst() {
		return Const(a.Val + b.Val)
	}
	if a.IsConst() && a.Val == 0 {
		return b
	}
	if b.IsConst() && b.Val == 0 {
		return a
	}
	return newNode(&Expr{Kind: KAdd, Args: []*Expr{a, b}})
}

// Sub returns a - b.
func Sub(a, b *Expr) *Expr {
	if a.IsConst() && b.IsConst() {
		return Const(a.Val - b.Val)
	}
	if b.IsConst() && b.Val == 0 {
		return a
	}
	if Equal(a, b) {
		return Const(0)
	}
	return newNode(&Expr{Kind: KSub, Args: []*Expr{a, b}})
}

// Mul returns a * b, folding constants and simplifying multiplication by 0/1.
func Mul(a, b *Expr) *Expr {
	if a.IsConst() && b.IsConst() {
		return Const(a.Val * b.Val)
	}
	if a.IsConst() {
		switch a.Val {
		case 0:
			return Const(0)
		case 1:
			return b
		}
	}
	if b.IsConst() {
		switch b.Val {
		case 0:
			return Const(0)
		case 1:
			return a
		}
	}
	return newNode(&Expr{Kind: KMul, Args: []*Expr{a, b}})
}

// Div returns a / b using Go's truncated division. Division by a constant
// zero is left unfolded; evaluation reports it as an error.
func Div(a, b *Expr) *Expr {
	if a.IsConst() && b.IsConst() && b.Val != 0 {
		return Const(a.Val / b.Val)
	}
	if b.IsConst() && b.Val == 1 {
		return a
	}
	return newNode(&Expr{Kind: KDiv, Args: []*Expr{a, b}})
}

// Mod returns a % b using Go's truncated remainder semantics.
func Mod(a, b *Expr) *Expr {
	if a.IsConst() && b.IsConst() && b.Val != 0 {
		return Const(a.Val % b.Val)
	}
	return newNode(&Expr{Kind: KMod, Args: []*Expr{a, b}})
}

// Neg returns -a.
func Neg(a *Expr) *Expr {
	if a.IsConst() {
		return Const(-a.Val)
	}
	if a.Kind == KNeg {
		return a.Args[0]
	}
	return newNode(&Expr{Kind: KNeg, Args: []*Expr{a}})
}

func cmpFold(k Kind, a, b int64) bool {
	switch k {
	case KEq:
		return a == b
	case KNe:
		return a != b
	case KLt:
		return a < b
	case KLe:
		return a <= b
	case KGt:
		return a > b
	case KGe:
		return a >= b
	}
	panic("expr: cmpFold on non-comparison kind " + k.String())
}

func compare(k Kind, a, b *Expr) *Expr {
	if a.IsConst() && b.IsConst() {
		return Bool(cmpFold(k, a.Val, b.Val))
	}
	if Equal(a, b) {
		switch k {
		case KEq, KLe, KGe:
			return trueExpr
		case KNe, KLt, KGt:
			return falseExpr
		}
	}
	return newNode(&Expr{Kind: k, Args: []*Expr{a, b}})
}

// Eq returns a == b.
func Eq(a, b *Expr) *Expr { return compare(KEq, a, b) }

// Ne returns a != b.
func Ne(a, b *Expr) *Expr { return compare(KNe, a, b) }

// Lt returns a < b.
func Lt(a, b *Expr) *Expr { return compare(KLt, a, b) }

// Le returns a <= b.
func Le(a, b *Expr) *Expr { return compare(KLe, a, b) }

// Gt returns a > b.
func Gt(a, b *Expr) *Expr { return compare(KGt, a, b) }

// Ge returns a >= b.
func Ge(a, b *Expr) *Expr { return compare(KGe, a, b) }

// And returns a && b with boolean-literal short-circuiting.
func And(a, b *Expr) *Expr {
	if a.IsFalse() || b.IsFalse() {
		return falseExpr
	}
	if a.IsTrue() {
		return b
	}
	if b.IsTrue() {
		return a
	}
	if Equal(a, b) {
		return a
	}
	return newNode(&Expr{Kind: KAnd, Args: []*Expr{a, b}})
}

// Or returns a || b with boolean-literal short-circuiting.
func Or(a, b *Expr) *Expr {
	if a.IsTrue() || b.IsTrue() {
		return trueExpr
	}
	if a.IsFalse() {
		return b
	}
	if b.IsFalse() {
		return a
	}
	if Equal(a, b) {
		return a
	}
	return newNode(&Expr{Kind: KOr, Args: []*Expr{a, b}})
}

// negatedCmp maps each comparison kind to its logical negation.
var negatedCmp = map[Kind]Kind{
	KEq: KNe, KNe: KEq,
	KLt: KGe, KGe: KLt,
	KLe: KGt, KGt: KLe,
}

// Not returns !a. Negation is pushed all the way down: through boolean
// literals, double negation, comparisons (!(x < y) becomes x >= y) and, via
// De Morgan, through conjunction and disjunction. The result therefore never
// contains a KNot node, which keeps path constraints inside the
// comparison/and/or fragment the solver propagates.
func Not(a *Expr) *Expr {
	switch a.Kind {
	case KBool:
		return Bool(a.Val == 0)
	case KNot:
		return a.Args[0]
	case KEq, KNe, KLt, KLe, KGt, KGe:
		return compare(negatedCmp[a.Kind], a.Args[0], a.Args[1])
	case KAnd:
		return Or(Not(a.Args[0]), Not(a.Args[1]))
	case KOr:
		return And(Not(a.Args[0]), Not(a.Args[1]))
	}
	return newNode(&Expr{Kind: KNot, Args: []*Expr{a}})
}

// AndAll returns the conjunction of all exprs (true for an empty list).
func AndAll(exprs []*Expr) *Expr {
	out := trueExpr
	for _, e := range exprs {
		out = And(out, e)
	}
	return out
}

// OrAll returns the disjunction of all exprs (false for an empty list).
func OrAll(exprs []*Expr) *Expr {
	out := falseExpr
	for _, e := range exprs {
		out = Or(out, e)
	}
	return out
}
