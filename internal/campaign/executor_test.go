package campaign

// Executor-seam coverage: the budget-negotiation contract under the new
// backend interface (SplitBudget edge cases the distributed refactor made
// load-bearing), the local backend's equivalence with the historical
// in-process engine, and the engine's behavior under a custom backend.

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"achilles/internal/core"
	"achilles/internal/solver"
)

// TestSplitBudgetExecutorEdgeCases pins SplitBudget under the executor seam
// for the degenerate shapes a backend can legally negotiate: more lanes than
// budget (every lane still gets one slot — no zero-starved lane), a zero
// budget (clamped up to one slot per lane rather than handing out zeros),
// and the single-lane split (the whole budget lands on the only lane). When
// the budget covers the lanes, the grants sum to exactly the budget; when
// it cannot, they sum to exactly one slot per lane — never zero anywhere.
func TestSplitBudgetExecutorEdgeCases(t *testing.T) {
	cases := []struct {
		name            string
		budget, workers int
		want            []int
	}{
		{"workers-exceed-budget", 2, 5, []int{1, 1, 1, 1, 1}},
		{"workers-far-exceed-budget", 1, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{"zero-budget", 0, 3, []int{1, 1, 1}},
		{"zero-budget-single", 0, 1, []int{1}},
		{"single-worker-degenerate", 9, 1, []int{9}},
		{"single-worker-unit", 1, 1, []int{1}},
		{"exact-division", 6, 3, []int{2, 2, 2}},
		{"remainder-spread", 8, 5, []int{2, 2, 2, 1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := SplitBudget(c.budget, c.workers)
			if !slices.Equal(got, c.want) {
				t.Fatalf("SplitBudget(%d, %d) = %v, want %v", c.budget, c.workers, got, c.want)
			}
			sum := 0
			for _, g := range got {
				if g < 1 {
					t.Fatalf("SplitBudget(%d, %d): zero-starved worker in %v", c.budget, c.workers, got)
				}
				sum += g
			}
			wantSum := c.budget
			if c.workers > wantSum {
				wantSum = c.workers
			}
			if sum != wantSum {
				t.Fatalf("SplitBudget(%d, %d) sums to %d, want %d", c.budget, c.workers, sum, wantSum)
			}
		})
	}
}

// TestLocalExecutorNegotiate: the default backend reproduces the historical
// pool sizing — lanes = min(budget, pending jobs), remainder distributed.
func TestLocalExecutorNegotiate(t *testing.T) {
	pend := func(n int) []PlannedJob { return make([]PlannedJob, n) }
	e := NewLocalExecutor(Options{}, nil)
	cases := []struct {
		budget, pending int
		want            []int
	}{
		{8, 5, []int{2, 2, 2, 1, 1}},
		{2, 5, []int{1, 1}},
		{4, 0, []int{}},
		{1, 1, []int{1}},
		{3, 12, []int{1, 1, 1}},
	}
	for _, c := range cases {
		if got := e.Negotiate(c.budget, pend(c.pending)); !slices.Equal(got, c.want) {
			t.Errorf("Negotiate(%d, %d jobs) = %v, want %v", c.budget, c.pending, got, c.want)
		}
	}
}

// countingExecutor wraps the local backend and records every call, proving
// the campaign engine routes all execution through the seam.
type countingExecutor struct {
	inner      *LocalExecutor
	negotiated []PlannedJob
	ran        []string
	grants     []int
	closed     int
}

func (e *countingExecutor) Negotiate(budget int, pending []PlannedJob) []int {
	e.negotiated = append([]PlannedJob{}, pending...)
	return e.inner.Negotiate(budget, pending)
}

func (e *countingExecutor) Run(ctx context.Context, j Job, parallelism int) (RunManifest, []Report) {
	e.ran = append(e.ran, j.Key()) // single-lane campaigns only (no lock)
	e.grants = append(e.grants, parallelism)
	return e.inner.Run(ctx, j, parallelism)
}

func (e *countingExecutor) Close() error { e.closed++; return nil }

// TestCampaignRunsThroughExecutorSeam: with a custom executor installed,
// every non-cached job flows through Run with a fingerprinted pending list
// at Negotiate, the bundle is ContentHash-identical to a default-backend
// run, and the campaign does NOT close an executor it did not create.
func TestCampaignRunsThroughExecutorSeam(t *testing.T) {
	base := mustRun(t, Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1})

	ce := &countingExecutor{inner: NewLocalExecutor(Options{}, solver.Default())}
	b := mustRun(t, Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1, Executor: ce})

	if len(ce.ran) != 2 {
		t.Fatalf("executor ran %d jobs (%v), want 2", len(ce.ran), ce.ran)
	}
	if len(ce.negotiated) != 2 || ce.negotiated[0].Fingerprint == "" {
		t.Fatalf("Negotiate saw %v — want 2 fingerprinted pending jobs", ce.negotiated)
	}
	for _, g := range ce.grants {
		if g != 1 {
			t.Fatalf("lane grants %v, want all 1 under -j 1", ce.grants)
		}
	}
	if ce.closed != 0 {
		t.Fatal("campaign closed a caller-owned executor")
	}
	h1, err := base.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := b.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("custom-executor bundle drifted: %s != %s", h2, h1)
	}

	// Baseline reuse happens above the seam: a fully cached re-run must not
	// touch the executor at all.
	ce2 := &countingExecutor{inner: NewLocalExecutor(Options{}, solver.Default())}
	cached := mustRun(t, Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1, Executor: ce2, Baseline: b})
	if cached.Manifest.CachedJobs != 2 {
		t.Fatalf("expected full reuse, got %d cached jobs", cached.Manifest.CachedJobs)
	}
	if len(ce2.ran) != 0 || len(ce2.negotiated) != 0 {
		t.Fatalf("cached campaign still reached the executor: ran=%v negotiated=%d", ce2.ran, len(ce2.negotiated))
	}
}

// TestShuffleSeedIsResultInvariant: feeding the lanes in shuffled order must
// not change the bundle — manifest order and ContentHash are plan-order
// properties, not schedule properties.
func TestShuffleSeedIsResultInvariant(t *testing.T) {
	plain := mustRun(t, Options{Targets: []string{"kv", "kv-fixed", "pbft"}, Jobs: 2})
	want, err := plain.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 42, -7} {
		b := mustRun(t, Options{Targets: []string{"kv", "kv-fixed", "pbft"}, Jobs: 2, ShuffleSeed: seed})
		got, err := b.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: shuffled campaign drifted: %s != %s", seed, got, want)
		}
		for i, rm := range b.Manifest.Runs {
			if rm.Key() != plain.Manifest.Runs[i].Key() {
				t.Fatalf("seed %d: manifest order drifted at %d: %s != %s", seed, i, rm.Key(), plain.Manifest.Runs[i].Key())
			}
		}
	}
}

// TestExecuteJobMatchesLocalBackend: the exported single-job path (what
// achilles-worker runs) produces the identical manifest entry and report
// stream as the local backend — the per-job half of the distributed
// determinism argument.
func TestExecuteJobMatchesLocalBackend(t *testing.T) {
	j := Job{Target: "kv", Mode: core.ModeOptimized}
	local := NewLocalExecutor(Options{}, solver.Default())
	rmL, repsL := local.Run(context.Background(), j, 1)
	rmW, repsW := ExecuteJob(context.Background(), j, 1, solver.Default(), core.Observer{})
	rmL.WallMS, rmW.WallMS = 0, 0
	rmL.Counters, rmW.Counters = nil, nil
	if !reflect.DeepEqual(rmL, rmW) {
		t.Fatalf("manifest entries diverge:\nlocal:  %+v\nworker: %+v", rmL, rmW)
	}
	if len(repsL) != len(repsW) {
		t.Fatalf("report counts diverge: %d != %d", len(repsL), len(repsW))
	}
	for i := range repsL {
		if repsL[i].Fingerprint != repsW[i].Fingerprint || repsL[i].Class != repsW[i].Class {
			t.Fatalf("report %d diverges: %+v != %+v", i, repsL[i], repsW[i])
		}
	}

	// Unknown targets fail identically through both paths.
	bogus := Job{Target: "no-such-target", Mode: core.ModeOptimized}
	rmL, _ = local.Run(context.Background(), bogus, 1)
	rmW, _ = ExecuteJob(context.Background(), bogus, 1, nil, core.Observer{})
	if rmL.Error == "" || rmL.Error != rmW.Error {
		t.Fatalf("unknown-target errors diverge: %q != %q", rmL.Error, rmW.Error)
	}
}
