package core_test

import (
	"testing"

	"achilles/internal/core"
	"achilles/internal/expr"
	"achilles/internal/protocols/fsp"
	"achilles/internal/solver"
)

// TestDifferentFromClassMatrix holds the member-class differentFrom matrix
// against the pairwise §3.3 definition, over every registry target plus the
// rich FSP corpus. For every path pair and field, DifferentFrom must equal
// the answer of a fresh cache-disabled solver to member_i ∧ ¬member_j (TriNo
// on the diagonal, TriUnknown for a nil member); the DiffFrom* tallies must
// count the reference's entries; and two paths must share a negation class
// exactly when their negations are structurally equal.
func TestDifferentFromClassMatrix(t *testing.T) {
	names := []string{"fsp-rich"}
	targets := []core.Target{fsp.NewRichTarget(false)}
	for _, d := range catalog(t) {
		names, targets = append(names, d.Name), append(targets, d.Target())
	}
	for k, tgt := range targets {
		t.Run(names[k], func(t *testing.T) {
			pc, err := core.ExtractClientPredicate(tgt.Clients, core.ExtractOptions{
				Exec:        tgt.ClientExec,
				FieldNames:  tgt.FieldNames,
				Mask:        tgt.Mask,
				SharedState: tgt.SharedState,
			})
			if err != nil {
				t.Fatal(err)
			}
			n := len(pc.Paths)
			// The pairwise reference, memoised by rendering pair.
			ref := solver.New(solver.Options{DisableCache: true})
			keys := make([][]string, n)
			classes := map[string]bool{}
			for i := range n {
				keys[i] = make([]string, pc.NumFields)
				for f := range pc.NumFields {
					if m := core.Member(pc, i, f); m != nil {
						keys[i][f] = m.String()
						classes[keys[i][f]] = true
					}
				}
			}
			memo := map[[2]string]core.Tri{}
			reference := func(i, j, f int) core.Tri {
				mi, mj := core.Member(pc, i, f), core.Member(pc, j, f)
				switch {
				case i == j:
					return core.TriNo
				case mi == nil || mj == nil:
					return core.TriUnknown
				}
				key := [2]string{keys[i][f], keys[j][f]}
				tri, ok := memo[key]
				if !ok {
					switch res, _ := ref.Check([]*expr.Expr{mi, expr.Not(mj)}); res {
					case solver.Sat:
						tri = core.TriYes
					case solver.Unsat:
						tri = core.TriNo
					}
					memo[key] = tri
				}
				return tri
			}
			var tally [3]int
			for i := range n {
				for j := range n {
					for f := range pc.NumFields {
						want := reference(i, j, f)
						tally[want]++
						if got := pc.DifferentFrom(i, j, f); got != want {
							t.Fatalf("differentFrom[%d][%d][%d] = %v, the pairwise reference says %v", i, j, f, got, want)
						}
					}
				}
			}
			st := pc.PreprocessStats
			if got, want := [3]int{st.DiffFromUnk, st.DiffFromYes, st.DiffFromNo}, tally; got != want {
				t.Errorf("DiffFrom Unknown/Yes/No tallies = %v, the reference counts %v", got, want)
			}
			negClasses := map[int]bool{}
			for i, p := range pc.Paths {
				negClasses[core.NegClass(pc, i)] = true
				for j, q := range pc.Paths {
					if same, equal := core.NegClass(pc, i) == core.NegClass(pc, j), p.Negation() == q.Negation(); same != equal {
						t.Fatalf("paths %d and %d: same negation class %v, structurally equal negations %v", i, j, same, equal)
					}
				}
			}
			t.Logf("%d paths, %d member classes, %d negation classes, %d reference queries", n, len(classes), len(negClasses), len(memo))
		})
	}
}
