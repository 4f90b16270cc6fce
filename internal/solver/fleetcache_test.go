package solver_test

// The persisted-cache round trip at fleet scale: the verdicts a real audit
// leaves behind, saved and reloaded by a fresh solver, must all survive
// re-verification — a faithful file may never be reported as contradicted.

import (
	"path/filepath"
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
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	if err := warm.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	cold := solver.Default()
	loaded, err := cold.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == 0 {
		t.Fatal("the fleet audit left no verdicts to persist")
	}
	second, err := campaign.Run(campaign.Options{Jobs: 2, Solver: cold})
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.ReverifyFailed != 0 {
		t.Fatalf("%d of %d loaded verdicts failed re-verification on a faithful file: %+v", st.ReverifyFailed, loaded, st)
	}
	if st.Reverified == 0 || st.CacheHits == 0 {
		t.Fatalf("the reloaded cache was never consulted: %+v", st)
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
