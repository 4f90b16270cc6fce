package solver

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"achilles/internal/expr"
)

// trojanShapedQueries builds a batch of queries of the shapes the Achilles
// pipeline issues: feasibility conjunctions, differentFrom membership pairs
// and negation disjunctions, over a few overlapping variables.
func trojanShapedQueries() [][]*expr.Expr {
	m0, m1, m2 := expr.Var("m0"), expr.Var("m1"), expr.Var("m2")
	var qs [][]*expr.Expr
	for k := int64(0); k < 24; k++ {
		qs = append(qs,
			[]*expr.Expr{expr.Ge(m0, expr.Const(k)), expr.Lt(m0, expr.Const(k+10))},
			[]*expr.Expr{expr.Eq(m1, expr.Add(m0, expr.Const(k))), expr.Gt(m0, expr.Const(0)), expr.Le(m1, expr.Const(50))},
			[]*expr.Expr{expr.Or(expr.Lt(m2, expr.Const(0)), expr.Ge(m2, expr.Const(k+1))), expr.Ne(m2, expr.Const(7))},
			[]*expr.Expr{expr.Eq(m0, expr.Const(k)), expr.Ne(m0, expr.Const(k))}, // unsat
		)
	}
	return qs
}

// TestConcurrentCheckMatchesSequential hammers one shared Solver from many
// goroutines and asserts every answer (and every Sat model, which Check
// verifies by evaluation before returning) matches the sequential baseline.
// It runs twice: on a caching solver, where hits and misses interleave, and
// on a cache-disabled one, where every call walks the split tree through
// the pooled scratch buffers and the lazily filled split lists at once.
// Under -race this doubles as the data-race check for the stats counters,
// the verdict cache, the scratch pool and the split lists.
func TestConcurrentCheckMatchesSequential(t *testing.T) {
	qs := trojanShapedQueries()
	baseline := New(Options{DisableCache: true})
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i], _ = baseline.Check(q)
	}

	const goroutines = 8
	const rounds = 5
	for _, tc := range []struct {
		name   string
		shared *Solver
	}{
		{"cached", Default()},
		{"uncached", New(Options{DisableCache: true})},
	} {
		shared := tc.shared
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := range qs {
						// Each goroutine walks the batch at a different
						// offset so cache hits and misses interleave.
						idx := (i + g*7) % len(qs)
						res, model := shared.Check(qs[idx])
						if res != want[idx] {
							errs <- fmt.Errorf("%s: goroutine %d: query %d = %v, want %v", tc.name, g, idx, res, want[idx])
							return
						}
						if res == Sat {
							for _, c := range qs[idx] {
								ok, err := expr.EvalBool(c, model)
								if err != nil || !ok {
									errs <- fmt.Errorf("%s: goroutine %d: query %d: model %v fails %s", tc.name, g, idx, model, c)
									return
								}
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		st := shared.Stats()
		if shared.cache != nil && st.CacheHits == 0 {
			t.Fatal("no cache hits across repeated identical queries")
		}
		if st.Queries != goroutines*rounds*len(qs) {
			t.Fatalf("%s: query counter %d, want %d", tc.name, st.Queries, goroutines*rounds*len(qs))
		}
	}
}

// TestCacheKeyCanonicalisesOrder asserts reordered conjunctions share one
// cache entry.
func TestCacheKeyCanonicalisesOrder(t *testing.T) {
	s := Default()
	a := expr.Lt(expr.Var("x"), expr.Const(10))
	b := expr.Gt(expr.Var("x"), expr.Const(2))
	if res, _ := s.Check([]*expr.Expr{a, b}); res != Sat {
		t.Fatalf("want sat, got %v", res)
	}
	if res, _ := s.Check([]*expr.Expr{b, a}); res != Sat {
		t.Fatalf("want sat, got %v", res)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// slowQuery is a query whose solve enumerates an (n+1)² grid: x·y equals a
// product of two primes above n, so no point of the grid satisfies it and
// the solver answers Unsat after (n+1)² + (n+1) decisions, or Unknown when
// MaxDecisions runs out first.
func slowQuery(n int64) []*expr.Expr {
	x, y := expr.Var("x"), expr.Var("y")
	return []*expr.Expr{
		expr.Ge(x, expr.Const(0)), expr.Le(x, expr.Const(n)),
		expr.Ge(y, expr.Const(0)), expr.Le(y, expr.Const(n)),
		expr.Eq(expr.Mul(x, y), expr.Const(1000003*1000003)),
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightSolvesOnce asks one slow query from many goroutines at
// once: one of them solves it, the others wait for its verdict and count as
// cache hits, and the decisions are those of one solve. Every goroutine
// answers Unknown, so each counts one.
func TestSingleFlightSolvesOnce(t *testing.T) {
	const goroutines = 8
	q := slowQuery(1000)
	opts := Options{MaxDecisions: 300000}
	want, _ := New(opts).Check(q)
	if want != Unknown {
		t.Fatalf("reference solve: %v, want unknown under MaxDecisions", want)
	}
	s := New(opts)
	start := make(chan struct{})
	results := make(chan Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, _ := s.Check(q)
			results <- res
		}()
	}
	close(start)
	wg.Wait()
	close(results)
	for res := range results {
		if res != want {
			t.Fatalf("a goroutine got %v, want %v", res, want)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != goroutines-1 || st.Decisions != opts.MaxDecisions || st.Unknowns != goroutines {
		t.Fatalf("misses=%d hits=%d decisions=%d unknowns=%d, want 1/%d/%d/%d",
			st.CacheMisses, st.CacheHits, st.Decisions, st.Unknowns, goroutines-1, opts.MaxDecisions, goroutines)
	}
}

// TestSingleFlightLeaderCancelled cancels the goroutine solving a query
// while others wait for it: the cancelled leader answers Unknown and caches
// nothing, one waiter solves the query itself, and every waiter gets the
// real verdict.
func TestSingleFlightLeaderCancelled(t *testing.T) {
	const waiters = 3
	q := slowQuery(700)
	s := New(Options{MaxDecisions: 1 << 22})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan Result, 1)
	go func() {
		res, _ := s.CheckCtx(ctx, q)
		leader <- res
	}()
	waitFor(t, "the leader to search", func() bool { return s.Stats().Decisions > 0 })
	results := make(chan Result, waiters)
	for w := 0; w < waiters; w++ {
		go func() {
			res, _ := s.Check(q)
			results <- res
		}()
	}
	waitFor(t, "the waiters to ask", func() bool { return s.Stats().Queries == 1+waiters })
	cancel()
	if res := <-leader; res != Unknown {
		t.Fatalf("cancelled leader answered %v, want unknown", res)
	}
	for w := 0; w < waiters; w++ {
		if res := <-results; res != Unsat {
			t.Fatalf("waiter answered %v, want unsat", res)
		}
	}
	if st := s.Stats(); st.CacheMisses != 2 || st.CacheHits != waiters-1 {
		t.Fatalf("misses=%d hits=%d, want 2/%d: one waiter solves after the leader withdraws",
			st.CacheMisses, st.CacheHits, waiters-1)
	}
	if res, _ := s.Check(q); res != Unsat || s.Stats().CacheHits != waiters {
		t.Fatalf("re-ask: %v with %d hits, want the cached unsat", res, s.Stats().CacheHits)
	}
}

// TestSingleFlightWaiterCancelled cancels a goroutine waiting for another's
// solve: it answers Unknown at once, without searching, and the leader's
// verdict is cached as usual.
func TestSingleFlightWaiterCancelled(t *testing.T) {
	q := slowQuery(700)
	opts := Options{MaxDecisions: 1 << 22}
	ref := New(opts)
	if res, _ := ref.Check(q); res != Unsat {
		t.Fatalf("reference solve: %v, want unsat", res)
	}
	s := New(opts)
	leader := make(chan Result, 1)
	go func() {
		res, _ := s.Check(q)
		leader <- res
	}()
	waitFor(t, "the leader to search", func() bool { return s.Stats().Decisions > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if res, _ := s.CheckCtx(ctx, q); res != Unknown {
		t.Fatalf("cancelled waiter answered %v, want unknown", res)
	}
	select {
	case res := <-leader:
		t.Fatalf("the leader finished (%v) before the cancelled waiter returned", res)
	default:
	}
	if res := <-leader; res != Unsat {
		t.Fatalf("leader answered %v, want unsat", res)
	}
	if got, want := s.Stats().Decisions, ref.Stats().Decisions; got != want {
		t.Fatalf("decisions=%d, want %d: the cancelled waiter must not search", got, want)
	}
	if res, _ := s.Check(q); res != Unsat {
		t.Fatalf("re-ask answered %v, want the cached unsat", res)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
}

// TestCacheEviction fills a tiny cache far past its cap and checks the
// solver still answers correctly (eviction must never change verdicts).
func TestCacheEviction(t *testing.T) {
	s := New(Options{})
	s.cache = newVerdictCache(8)
	x := expr.Var("x")
	for i := int64(0); i < 100; i++ {
		if res, _ := s.Check([]*expr.Expr{expr.Eq(x, expr.Const(i))}); res != Sat {
			t.Fatalf("query %d: want sat, got %v", i, res)
		}
	}
	// Re-ask the first (long-evicted) query.
	if res, model := s.Check([]*expr.Expr{expr.Eq(x, expr.Const(0))}); res != Sat || model["x"] != 0 {
		t.Fatalf("re-solve after eviction: %v %v", res, model)
	}
}
