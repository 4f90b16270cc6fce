package expr_test

// The canonical-node table against a structural reference: over the fuzz
// suite's formula generator, pointer identity must agree with recursive
// structural comparison, also when many goroutines build the same trees at
// once.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"achilles/internal/expr"
	"achilles/internal/fuzz"
)

// equalRef is structural equality by recursive comparison, as nodes were
// compared before they were canonical: the reference pointer identity must
// agree with.
func equalRef(a, b *expr.Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Kind != b.Kind || a.Val != b.Val || a.Name != b.Name || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !equalRef(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// formulas builds the generator's formulas for seeds [from, to), with every
// variable renamed through ren.
func formulas(from, to int64, ren func(string) string) [][]*expr.Expr {
	opts := fuzz.DefaultFormulaOptions()
	opts.Nonlinear = true
	var out [][]*expr.Expr
	for seed := from; seed < to; seed++ {
		f := fuzz.Formula(rand.New(rand.NewSource(seed)), opts)
		for i, c := range f {
			f[i] = expr.RenameVars(c, ren)
		}
		out = append(out, f)
	}
	return out
}

func same(n string) string { return n }

// subterms appends every node of e, repeats included.
func subterms(e *expr.Expr, out []*expr.Expr) []*expr.Expr {
	out = append(out, e)
	for _, a := range e.Args {
		out = subterms(a, out)
	}
	return out
}

// TestCanonicalIdentityMatchesStructure builds every formula twice,
// independently, and gets the same pointers; and over all pairs of subterms
// of a corpus, two nodes are one pointer exactly when the structural
// reference calls them equal.
func TestCanonicalIdentityMatchesStructure(t *testing.T) {
	a, b := formulas(0, 400, same), formulas(0, 400, same)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("seed %d, constraint %d: two constructions of %s are two nodes", i, j, a[i][j])
			}
		}
	}
	var nodes []*expr.Expr
	for _, f := range formulas(0, 40, same) {
		for _, c := range f {
			nodes = subterms(c, nodes)
		}
	}
	shared := 0
	for i, x := range nodes {
		for _, y := range nodes[i+1:] {
			if eq := equalRef(x, y); (x == y) != eq {
				t.Fatalf("pointer identity %v, structural equality %v: %s and %s", x == y, eq, x, y)
			}
			if x == y {
				shared++
			}
		}
	}
	if len(nodes) < 500 || shared == 0 {
		t.Fatalf("%d subterms, %d equal pairs: too few to compare", len(nodes), shared)
	}
}

// TestCanonicalIdentityUnderConcurrency has 8 goroutines build the same
// formulas at once, over variable names no other test uses, so that they
// race to insert each node. Every goroutine must get the same pointers.
// Between rounds the trees are dropped and collected, so later rounds also
// race with the cleanups of the nodes they rebuild. Run under -race in CI.
func TestCanonicalIdentityUnderConcurrency(t *testing.T) {
	const workers, rounds = 8, 3
	for r := 0; r < rounds; r++ {
		ren := func(n string) string { return fmt.Sprintf("conc%d_%s", r, n) }
		if r == rounds-1 {
			ren = func(n string) string { return "conc0_" + n } // round 0's names, collected since
		}
		got := make([][][]*expr.Expr, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[w] = formulas(1000, 1300, ren)
			}()
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			for i := range got[0] {
				for j := range got[0][i] {
					if got[w][i][j] != got[0][i][j] {
						t.Fatalf("round %d: goroutines 0 and %d built %s as two nodes", r, w, got[0][i][j])
					}
				}
			}
		}
		runtime.GC()
	}
}
