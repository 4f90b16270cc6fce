package fuzz

import (
	"math/rand"
	"testing"

	"achilles/internal/expr"
)

// TestFormulaDeterministic pins the generator: the differential suite keys
// on reproducible corpora, so identical seeds must yield identical formulas.
func TestFormulaDeterministic(t *testing.T) {
	opts := DefaultFormulaOptions()
	opts.Nonlinear = true
	a := rand.New(rand.NewSource(99))
	b := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		fa := Formula(a, opts)
		fb := Formula(b, opts)
		if len(fa) != len(fb) {
			t.Fatalf("iteration %d: lengths differ (%d vs %d)", i, len(fa), len(fb))
		}
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("iteration %d, constraint %d: %v vs %v", i, j, fa[j], fb[j])
			}
		}
	}
}

// TestFormulaBounds checks the generator respects its vocabulary and size
// bounds (the differential budgets assume them).
func TestFormulaBounds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	opts := FormulaOptions{Vars: 3, MaxConstraints: 4, ConstRange: 5}
	for i := 0; i < 500; i++ {
		f := Formula(r, opts)
		if len(f) < 1 || len(f) > opts.MaxConstraints {
			t.Fatalf("formula size %d outside [1, %d]", len(f), opts.MaxConstraints)
		}
		for _, c := range f {
			for _, v := range expr.Vars(c) {
				if v != "x0" && v != "x1" && v != "x2" {
					t.Fatalf("variable %q outside the 3-var vocabulary in %v", v, c)
				}
			}
		}
	}
}

// TestFormulaZeroOptions checks the defaulting path.
func TestFormulaZeroOptions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := Formula(r, FormulaOptions{})
	if len(f) == 0 {
		t.Fatal("zero options produced an empty formula")
	}
}
