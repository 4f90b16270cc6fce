package solver_test

// The verdict cache at fleet scale: every verdict a real audit leaves
// behind, decoded from its intern-ID key back into the query it names, must
// re-verify, and a second audit on the warm solver must agree with the
// first.

import (
	"testing"

	"achilles/internal/campaign"
	_ "achilles/internal/protocols"
	"achilles/internal/solver"
)

func TestFleetCacheRoundTripReverifies(t *testing.T) {
	warm := solver.Default()
	first, err := campaign.Run(campaign.Options{Jobs: 2, Solver: warm})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := solver.CachedQueries(warm)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("the fleet audit left no verdicts in the cache")
	}

	// Each key decodes to one formula no other key names, and the verdict
	// stored under it holds: a Sat model satisfies the decoded query, and
	// an uncached solver proves every other verdict again from scratch.
	cold := solver.New(solver.Options{DisableCache: true})
	seen := make(map[string]bool, len(entries))
	for _, q := range entries {
		k := solver.QueryKey(q.Constraints)
		if seen[k] {
			t.Fatalf("two cache keys name the formula %v", q.Constraints)
		}
		seen[k] = true
		if q.Res == solver.Sat {
			verifyModel(t, q.Constraints, q.Model)
			continue
		}
		if res, _ := cold.Check(q.Constraints); res != q.Res {
			t.Fatalf("cached %v verdict for %v, a cold solve gives %v", q.Res, q.Constraints, res)
		}
	}

	before := warm.Stats()
	second, err := campaign.Run(campaign.Options{Jobs: 2, Solver: warm})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.CacheHits == before.CacheHits {
		t.Fatalf("the warm cache was never consulted: %+v", st)
	}
	h1, err := first.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := second.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("warm-cache audit drifted from the cold one: %s != %s", h2, h1)
	}
}
