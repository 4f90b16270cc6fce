package solver

// White-box tests for solver scopes (Solver.Scoped): a scope must answer,
// key and number entries as its parent would, and sibling scopes must each
// count their own work while their parent counts the sum.

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"achilles/internal/expr"
)

// outcome is everything one query's answers can take from the intern table.
type outcome struct {
	res, prefixRes     Result
	model, prefixModel expr.Env
	key                string
	holds, decided     bool
}

// ask runs each query through s: Check, the cache key of its interned
// form, and a prefix of its first constraint deciding the rest (which also
// asks Implies of the last constraint, so complements are interned too).
func ask(s *Solver, qs [][]*expr.Expr) []outcome {
	out := make([]outcome, len(qs))
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
func sameOutcomes(got, want []outcome) error {
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

// TestScopedSolverSharesAllButCounters holds Solver.Scoped: a scoped solver
// answers as its parent would, counts into the parent's statistics and
// fills the parent's verdict cache and intern table.
func TestScopedSolverSharesAllButCounters(t *testing.T) {
	s, ref := Default(), Default()
	want := ask(ref, trojanShapedQueries())
	sc := s.Scoped()
	qs := trojanShapedQueries()
	if err := sameOutcomes(ask(sc, qs), want); err != nil {
		t.Fatal(err)
	}
	if st, rst := s.Stats(), ref.Stats(); st != rst {
		t.Fatalf("parent statistics after the scope's queries %+v, reference %+v", st, rst)
	}
	if got, want := entryIDs(s, qs), entryIDs(sc, qs); !slices.Equal(got, want) {
		t.Fatalf("parent and scope resolve the same trees to different entries:\n got %v\nwant %v", got, want)
	}
	misses := s.Stats().CacheMisses
	if err := sameOutcomes(ask(s, trojanShapedQueries()), want); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CacheMisses; got != misses {
		t.Fatalf("the parent solved %d queries the scope had cached", got-misses)
	}
}

// TestSiblingScopesCountTheirOwnWork queries one solver from 8 goroutines,
// each through a scope of its own and, for every other query, through a
// nested scope of that one, as a run's client extraction does. Each scope
// must count exactly the queries asked through it and its nested scope, and
// every counter of the parent, which asks nothing itself, must be the sum
// over its scopes. Run under -race in CI.
func TestSiblingScopesCountTheirOwnWork(t *testing.T) {
	const workers = 8
	s := Default()
	scopes := make([]*Solver, workers)
	asked := make([]int, workers)
	var wg sync.WaitGroup
	for w := range scopes {
		scopes[w] = s.Scoped()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scopes[w]
			nested := sc.Scoped()
			// Scope w asks the query set w+1 times, so no two scopes ask as
			// many queries and a count that leaks between siblings shows.
			for r := 0; r <= w; r++ {
				for i, q := range trojanShapedQueries() {
					on := sc
					if i%2 == 1 {
						on = nested
					}
					on.Check(q)
					on.CheckPrefixCtx(context.Background(), on.NewPrefix().Extend(q[0]), q[1:]...)
					asked[w] += 2
				}
			}
		}()
	}
	wg.Wait()

	var sum Stats
	for w, sc := range scopes {
		st := sc.Stats()
		if st.Queries != asked[w] {
			t.Errorf("scope %d counts %d queries, it asked %d", w, st.Queries, asked[w])
		}
		if st.CacheHits+st.CacheMisses != st.Queries {
			t.Errorf("scope %d: %d hits + %d misses != %d queries", w, st.CacheHits, st.CacheMisses, st.Queries)
		}
		sum.Queries += st.Queries
		sum.Decisions += st.Decisions
		sum.Propagations += st.Propagations
		sum.Splits += st.Splits
		sum.Verified += st.Verified
		sum.Unknowns += st.Unknowns
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.FeasibleHits += st.FeasibleHits
		sum.RoundCaps += st.RoundCaps
	}
	st := s.Stats()
	if st.Interned == 0 || st.Decisions == 0 || st.CacheMisses == 0 || st.CacheHits == 0 {
		t.Fatalf("the scopes did too little work to compare: %+v", st)
	}
	// Interned is the size of the table the scopes share, not a count.
	sum.Interned = st.Interned
	if st != sum {
		t.Fatalf("parent counts %+v, the sum over its scopes is %+v", st, sum)
	}
}
