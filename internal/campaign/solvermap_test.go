package campaign

// Manifest solver maps. Every run counts its own solver work on a scope of
// the campaign's solver (core.RunCtx), and a manifest's solver map sums its
// runs, so a campaign on a shared solver — achillesd's — counts its own work
// only, even while another campaign runs on the same solver.

import (
	"context"
	"sync"
	"testing"

	"achilles/internal/core"
	"achilles/internal/solver"
)

// TestManifestCountsOnlyItsOwnSolverWork runs the kv pair twice on one
// solver, as achillesd runs its jobs: the second manifest must count its own
// queries — as many as the first run asked, every one answered from the warm
// cache — not the solver's totals since it was built.
func TestManifestCountsOnlyItsOwnSolverWork(t *testing.T) {
	opts := Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1, Solver: solver.Default()}
	first, err := RunCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, got := first.Manifest.Solver, second.Manifest.Solver
	if want["queries"] == 0 || want["cache_misses"] == 0 {
		t.Fatalf("first run on a fresh solver counts no solver work: %v", want)
	}
	if got["queries"] != want["queries"] || got["cache_misses"] != 0 {
		t.Fatalf("second run counts %v, want queries %d and cache_misses 0", got, want["queries"])
	}
}

// TestOverlappingCampaignsCountTheirOwnWork runs two campaigns on one solver
// at once, as two daemon jobs that hold leases at the same time do: each
// manifest must count the queries of the same campaign run alone, and the
// two together what the solver counted.
func TestOverlappingCampaignsCountTheirOwnWork(t *testing.T) {
	plans := [][]string{{"kv", "kv-fixed", "paxos"}, {"kv", "raft", "pbft"}}
	solo := make([]Counters, len(plans))
	for i, targets := range plans {
		b, err := RunCtx(context.Background(), Options{Targets: targets, Jobs: 1, Solver: solver.Default()})
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = b.Manifest.Solver
	}

	// Neither campaign starts its first job before the other has started
	// its own, so the two share the solver while both run.
	shared := solver.Default()
	var started, wg sync.WaitGroup
	started.Add(len(plans))
	got := make([]Counters, len(plans))
	errs := make([]error, len(plans))
	for i, targets := range plans {
		var once sync.Once
		opts := Options{Targets: targets, Jobs: 1, Solver: shared, Observe: func(Job) core.Observer {
			once.Do(func() {
				started.Done()
				started.Wait()
			})
			return core.Observer{}
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := RunCtx(context.Background(), opts)
			if err == nil {
				got[i] = b.Manifest.Solver
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	var sum int64
	for i := range plans {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i]["queries"] != solo[i]["queries"] {
			t.Errorf("campaign %v counts %d queries beside another, %d alone", plans[i], got[i]["queries"], solo[i]["queries"])
		}
		if got[i]["cache_hits"]+got[i]["cache_misses"] != got[i]["queries"] {
			t.Errorf("campaign %v: %v does not split its queries into hits and misses", plans[i], got[i])
		}
		sum += got[i]["queries"]
	}
	if st := shared.Stats(); int64(st.Queries) != sum {
		t.Errorf("the shared solver counts %d queries, the two manifests %d", st.Queries, sum)
	}
}
