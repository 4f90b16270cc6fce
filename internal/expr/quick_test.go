package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refTree is a reference AST built without any simplification. The property
// tests evaluate it with naive recursive semantics and compare against Eval
// on the tree rebuilt through the simplifying constructors, proving the
// constructors preserve semantics.
type refTree struct {
	kind Kind
	val  int64
	name string
	args []*refTree
}

var intKinds = []Kind{KAdd, KSub, KMul, KDiv, KMod, KNeg}
var cmpKinds = []Kind{KEq, KNe, KLt, KLe, KGt, KGe}
var boolKinds = []Kind{KAnd, KOr, KNot}

var quickVarNames = []string{"a", "b", "c"}

func genIntTree(r *rand.Rand, depth int) *refTree {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return &refTree{kind: KConst, val: int64(r.Intn(21) - 10)}
		}
		return &refTree{kind: KVar, name: quickVarNames[r.Intn(len(quickVarNames))]}
	}
	k := intKinds[r.Intn(len(intKinds))]
	if k == KNeg {
		return &refTree{kind: k, args: []*refTree{genIntTree(r, depth-1)}}
	}
	return &refTree{kind: k, args: []*refTree{genIntTree(r, depth-1), genIntTree(r, depth-1)}}
}

func genBoolTree(r *rand.Rand, depth int) *refTree {
	if depth <= 0 || r.Intn(3) == 0 {
		k := cmpKinds[r.Intn(len(cmpKinds))]
		return &refTree{kind: k, args: []*refTree{genIntTree(r, depth), genIntTree(r, depth)}}
	}
	k := boolKinds[r.Intn(len(boolKinds))]
	if k == KNot {
		return &refTree{kind: k, args: []*refTree{genBoolTree(r, depth-1)}}
	}
	return &refTree{kind: k, args: []*refTree{genBoolTree(r, depth-1), genBoolTree(r, depth-1)}}
}

// refEval gives the oracle semantics. A false second return means the
// evaluation hit a division/remainder by zero and the sample is skipped.
func refEval(t *refTree, env Env) (int64, bool) {
	switch t.kind {
	case KConst:
		return t.val, true
	case KVar:
		return env[t.name], true
	case KNeg:
		v, ok := refEval(t.args[0], env)
		return -v, ok
	case KNot:
		v, ok := refEval(t.args[0], env)
		return 1 - v, ok
	}
	a, ok := refEval(t.args[0], env)
	if !ok {
		return 0, false
	}
	switch t.kind {
	case KAnd:
		if a == 0 {
			return 0, true
		}
		return refEval(t.args[1], env)
	case KOr:
		if a != 0 {
			return 1, true
		}
		return refEval(t.args[1], env)
	}
	b, ok := refEval(t.args[1], env)
	if !ok {
		return 0, false
	}
	switch t.kind {
	case KAdd:
		return a + b, true
	case KSub:
		return a - b, true
	case KMul:
		return a * b, true
	case KDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case KMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case KEq, KNe, KLt, KLe, KGt, KGe:
		if cmpFold(t.kind, a, b) {
			return 1, true
		}
		return 0, true
	}
	panic("unreachable")
}

// build converts a reference tree into an Expr via the constructors.
func (t *refTree) build() *Expr {
	switch t.kind {
	case KConst:
		return Const(t.val)
	case KVar:
		return Var(t.name)
	}
	args := make([]*Expr, len(t.args))
	for i, a := range t.args {
		args[i] = a.build()
	}
	return Rebuild(t.kind, args)
}

func randomEnv(r *rand.Rand) Env {
	env := Env{}
	for _, n := range quickVarNames {
		env[n] = int64(r.Intn(21) - 10)
	}
	return env
}

// TestQuickSimplifierSoundness: for random expression trees and random
// environments, the simplified tree evaluates to the same value as the
// unsimplified reference semantics.
func TestQuickSimplifierSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genBoolTree(r, 4)
		env := randomEnv(r)
		want, ok := refEval(tree, env)
		if !ok {
			return true // division by zero: skip
		}
		e := tree.build()
		got, err := Eval(e, env)
		if err != nil {
			// The simplified tree may still contain the division; an
			// error is only acceptable if the oracle skipped — it did
			// not, so this is a failure.
			t.Logf("eval error on %s: %v", e, err)
			return false
		}
		if got != want {
			t.Logf("tree %s: got %d want %d (env %v)", e, got, want, env)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickNotIsComplement: !e evaluates to the complement of e for random
// boolean trees.
func TestQuickNotIsComplement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genBoolTree(r, 3)
		env := randomEnv(r)
		e := tree.build()
		v, err := EvalBool(e, env)
		if err != nil {
			return true
		}
		nv, err := EvalBool(Not(e), env)
		if err != nil {
			return true
		}
		return v != nv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstituteMatchesEval: substituting the environment's constants
// into a tree folds it to the same value Eval computes.
func TestQuickSubstituteMatchesEval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genIntTree(r, 4)
		env := randomEnv(r)
		e := tree.build()
		want, err := Eval(e, env)
		if err != nil {
			return true
		}
		sub := make(map[string]*Expr, len(env))
		for k, v := range env {
			sub[k] = Const(v)
		}
		got := Substitute(e, sub)
		return got.IsConst() && got.Val == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickHashConsistency: printing is deterministic, and two constructions
// of one random tree are one node, which map keys hash alike.
func TestQuickHashConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		a := genBoolTree(r1, 3).build()
		b := genBoolTree(r2, 3).build()
		// Same seed => same tree => one node.
		return a == b && a.String() == b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
