package symexec_test

// External test package: the FSP model imports internal/core which imports
// symexec, so these equivalence tests live outside the package to avoid an
// import cycle.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"achilles/internal/expr"
	"achilles/internal/protocols/fsp"
	"achilles/internal/symexec"
)

// stateKey renders one terminal state order-independently of its ID.
func stateKey(s *symexec.State) string {
	return fmt.Sprintf("%v|%s|%s", s.Status, s.Trail, s.PathExpr())
}

// sameStates fails unless got lists the states of want, in want's order.
func sameStates(t *testing.T, got, want []*symexec.State) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frontier recorded %d states, reference %d", len(got), len(want))
	}
	for i := range want {
		if gk, wk := stateKey(got[i]), stateKey(want[i]); gk != wk {
			t.Fatalf("state %d differs:\n  reference %s\n  frontier  %s", i, wk, gk)
		}
	}
}

// TestParallelFrontierMatchesSequential explores the FSP server model with
// 1, 2, 4 and 8 workers and asserts the terminal state list is identical to
// a plain depth-first worklist's — same states, same order (the frontier
// sorts by Trail, which equals the depth-first completion order of a
// hook-free run). One worker under a MaxStates budget must keep the
// depth-first prefix.
func TestParallelFrontierMatchesSequential(t *testing.T) {
	unit := fsp.ServerUnit()
	seq, err := symexec.ReferenceDFS(unit, symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			par, err := symexec.Run(unit, symexec.Options{Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			sameStates(t, par.States, seq.States)
			if par.Stats.States != seq.Stats.States || par.Stats.Forks != seq.Stats.Forks {
				t.Fatalf("stats differ: par %+v, seq %+v", par.Stats, seq.Stats)
			}
		})
	}
	budget := seq.Stats.States / 3
	ref, err := symexec.ReferenceDFS(unit, symexec.Options{MaxStates: budget})
	if err != nil {
		t.Fatal(err)
	}
	got, err := symexec.Run(unit, symexec.Options{MaxStates: budget, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameStates(t, got.States, ref.States)
	sameStates(t, got.States, seq.States[:len(got.States)])
	if got.Stats != ref.Stats {
		t.Fatalf("budgeted stats differ: frontier %+v, reference %+v", got.Stats, ref.Stats)
	}
}

// TestParallelTrailsUnique asserts every terminal state has a distinct
// fork-tree trail — the property that makes Trail a sound merge key.
func TestParallelTrailsUnique(t *testing.T) {
	res, err := symexec.Run(fsp.ServerUnit(), symexec.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, st := range res.States {
		if seen[st.Trail] {
			t.Fatalf("duplicate trail %q", st.Trail)
		}
		seen[st.Trail] = true
	}
}

// TestParallelIDsAreTrailOrdered asserts every run renumbers state IDs in
// merge order, whatever the worker count, so downstream reports are
// reproducible run to run.
func TestParallelIDsAreTrailOrdered(t *testing.T) {
	for _, j := range []int{0, 1, 4} {
		res, err := symexec.Run(fsp.ServerUnit(), symexec.Options{Parallelism: j})
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range res.States {
			if st.ID != i {
				t.Fatalf("j=%d: state %d has ID %d after merge", j, i, st.ID)
			}
		}
	}
}

// TestHookPrunedStatesInTrailOrder: a sibling an OnBranch hook prunes is
// recorded at fork time, ahead of the states its elder forks later, yet
// the result lists it at its trail position at every worker count, with
// the same states as the depth-first reference.
func TestHookPrunedStatesInTrailOrder(t *testing.T) {
	unit := fsp.ServerUnit()
	// Prune the false side of every fork at odd depth.
	opts := symexec.Options{Hooks: symexec.Hooks{
		OnBranch: func(st *symexec.State, _ *expr.Expr) bool {
			return !(len(st.Trail)%2 == 1 && strings.HasSuffix(st.Trail, "1"))
		},
	}}
	ref, err := symexec.ReferenceDFS(unit, opts)
	if err != nil {
		t.Fatal(err)
	}
	byTrail := func(a, b *symexec.State) int { return strings.Compare(a.Trail, b.Trail) }
	if len(ref.ByStatus(symexec.StatusPruned)) == 0 || slices.IsSortedFunc(ref.States, byTrail) {
		t.Fatal("the hook prunes no sibling ahead of its trail position; the test is vacuous")
	}
	want := slices.Clone(ref.States)
	slices.SortFunc(want, byTrail)
	for _, j := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			o := opts
			o.Parallelism = j
			res, err := symexec.Run(unit, o)
			if err != nil {
				t.Fatal(err)
			}
			sameStates(t, res.States, want)
			for i, st := range res.States {
				if st.ID != i {
					t.Fatalf("state %d has ID %d", i, st.ID)
				}
			}
		})
	}
}
