package solver

// White-box tests for the intern arena's bounded pointer memo: a solver fed
// fresh trees of the same formulas round after round must reset the memo
// before it outgrows memoCap, and the resets must be invisible — the same
// entry IDs, the same number of distinct expressions, and the same verdicts,
// models, cache keys and subsumption answers as a solver whose memo never
// reset.

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"achilles/internal/expr"
)

// memoEntries counts the pointers the memo currently holds.
func (a *internArena) memoEntries() int {
	n := 0
	a.byPtr.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// memoOutcome is everything one query's answers can take from the arena.
type memoOutcome struct {
	res, prefixRes     Result
	model, prefixModel expr.Env
	key                string
	holds, decided     bool
}

// askMemo runs each query through s: Check, the cache key of its interned
// form, and a prefix of its first constraint deciding the rest (which also
// asks Implies of the last constraint, so complements are interned too).
func askMemo(s *Solver, qs [][]*expr.Expr) []memoOutcome {
	out := make([]memoOutcome, len(qs))
	for i, q := range qs {
		o := &out[i]
		o.res, o.model = s.Check(q)
		o.key = string(emptyPrefix.appendKey(nil, s.appendInterned(nil, q)))
		p := s.NewPrefix().Extend(q[0])
		o.prefixRes, o.prefixModel = s.CheckPrefixCtx(context.Background(), p, q[1:]...)
		o.holds, o.decided = p.Implies(q[len(q)-1])
	}
	return out
}

// sameOutcomes reports the first query whose answers differ.
func sameOutcomes(got, want []memoOutcome) error {
	for i := range want {
		g, w := got[i], want[i]
		if g.res != w.res || !maps.Equal(g.model, w.model) || g.key != w.key ||
			g.prefixRes != w.prefixRes || !maps.Equal(g.prefixModel, w.prefixModel) ||
			g.holds != w.holds || g.decided != w.decided {
			return fmt.Errorf("query %d: got %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// entryIDs interns every constraint of qs and lists the entry IDs in order.
func entryIDs(s *Solver, qs [][]*expr.Expr) []uint64 {
	var ids []uint64
	for _, q := range qs {
		for _, en := range s.appendInterned(nil, q) {
			ids = append(ids, en.id)
		}
	}
	return ids
}

// TestInternMemoBound feeds one solver fresh trees of a fixed formula set
// until its memo has reset twice, against a reference solver that is asked
// the same formulas through one set of pointers and so never resets.
func TestInternMemoBound(t *testing.T) {
	const maxRounds = 1000
	s := Default()
	ref := Default()
	want := askMemo(ref, trojanShapedQueries())

	var ids []uint64
	interned := 0
	for round := 0; s.Stats().MemoResets < 2; round++ {
		if round == maxRounds {
			t.Fatalf("memo not reset twice in %d rounds (stats %+v)", maxRounds, s.Stats())
		}
		qs := trojanShapedQueries()
		if err := sameOutcomes(askMemo(s, qs), want); err != nil {
			t.Fatalf("round %d (%d resets): %v", round, s.Stats().MemoResets, err)
		}
		got := entryIDs(s, qs)
		if round == 0 {
			ids, interned = got, s.Stats().Interned
		} else {
			if !slices.Equal(got, ids) {
				t.Fatalf("round %d (%d resets): entry IDs drifted:\n got %v\nwant %v", round, s.Stats().MemoResets, got, ids)
			}
			if n := s.Stats().Interned; n != interned {
				t.Fatalf("round %d: %d interned expressions, want %d", round, n, interned)
			}
		}
		if n := s.arena.memoEntries(); n > memoCap {
			t.Fatalf("round %d: memo holds %d entries, cap %d", round, n, memoCap)
		}
	}
	if st := ref.Stats(); st.MemoResets != 0 {
		t.Fatalf("reference solver reset its memo: %+v", st)
	}
	if refIDs := entryIDs(ref, trojanShapedQueries()); !slices.Equal(refIDs, ids) {
		t.Fatal("bounded and reference solvers numbered the same formulas differently")
	}

	// ResetStats zeroes the reset counter with the others.
	s.ResetStats()
	if st := s.Stats(); st.MemoResets != 0 {
		t.Fatalf("ResetStats left MemoResets at %d", st.MemoResets)
	}
}

// TestScopedSolverSharesAllButMemo holds Solver.Scoped: a scoped solver
// answers as its parent would, counts into the parent's statistics and
// fills the parent's verdict cache and intern table, while the pointers it
// interns stay out of the parent's memo.
func TestScopedSolverSharesAllButMemo(t *testing.T) {
	s, ref := Default(), Default()
	want := askMemo(ref, trojanShapedQueries())
	sc := s.Scoped()
	qs := trojanShapedQueries()
	if err := sameOutcomes(askMemo(sc, qs), want); err != nil {
		t.Fatal(err)
	}
	if st, rst := s.Stats(), ref.Stats(); st != rst {
		t.Fatalf("parent statistics after the scope's queries %+v, reference %+v", st, rst)
	}
	if n := s.arena.memoEntries(); n != 0 {
		t.Fatalf("the parent's memo holds %d pointers the scope interned", n)
	}
	if sc.arena.memoEntries() == 0 {
		t.Fatal("the scope's memo holds nothing")
	}
	if got, want := entryIDs(s, qs), entryIDs(sc, qs); !slices.Equal(got, want) {
		t.Fatalf("parent and scope resolve the same trees to different entries:\n got %v\nwant %v", got, want)
	}
	misses := s.Stats().CacheMisses
	if err := sameOutcomes(askMemo(s, trojanShapedQueries()), want); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CacheMisses; got != misses {
		t.Fatalf("the parent solved %d queries the scope had cached", got-misses)
	}
}

// TestInternMemoBoundConcurrent interns fresh trees from 8 goroutines sharing
// one solver, for enough rounds to reset the memo several times while other
// goroutines are mid-lookup: every alias must keep resolving to its entry and
// every answer must match the single-threaded one. Run under -race in CI.
func TestInternMemoBoundConcurrent(t *testing.T) {
	const workers = 8
	s := Default()
	base := trojanShapedQueries()
	want := askMemo(s, base)
	ids := entryIDs(s, base)
	interned := s.Stats().Interned
	// A round stores one fresh memo entry per top-level constraint.
	rounds := 3*memoCap/(workers*len(ids)) + 1

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qs := trojanShapedQueries()
				if got := entryIDs(s, qs); !slices.Equal(got, ids) {
					errc <- fmt.Errorf("worker %d round %d: entry IDs drifted", w, r)
					return
				}
				if err := sameOutcomes(askMemo(s, qs), want); err != nil {
					errc <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MemoResets == 0 {
		t.Fatalf("%d workers x %d rounds never reset the memo (stats %+v)", workers, rounds, st)
	}
	if st.Interned != interned {
		t.Fatalf("%d interned expressions after the rounds, want %d", st.Interned, interned)
	}
	if n := s.arena.memoEntries(); n > memoCap {
		t.Fatalf("memo holds %d entries, cap %d", n, memoCap)
	}
}
