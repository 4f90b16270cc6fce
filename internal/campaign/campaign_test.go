package campaign

import (
	"context"
	"maps"
	"strings"
	"testing"

	"achilles/internal/core"
	"achilles/internal/protocols/registry"

	// Populate the registry: campaign tests run real (cheap) targets.
	_ "achilles/internal/protocols"
)

// cheapOptions is a small fleet that exercises every bundle feature fast:
// a Trojan-carrying target, a clean -fixed variant, and a symbolic-state
// target (paxos) whose reports carry state worlds.
func cheapOptions(jobs int) Options {
	return Options{
		Targets: []string{"kv", "kv-fixed", "paxos"},
		Jobs:    jobs,
	}
}

func mustRun(t *testing.T, opts Options) *Bundle {
	t.Helper()
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rm := range b.Manifest.Runs {
		if rm.Error != "" {
			t.Fatalf("job %s failed: %s", rm.Key(), rm.Error)
		}
	}
	return b
}

func TestPlan(t *testing.T) {
	jobs, err := Plan(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("empty default plan")
	}
	for _, j := range jobs {
		if j.Mode != core.ModeOptimized {
			t.Errorf("default plan contains mode %s", j.Mode)
		}
	}
	// Explicit targets canonicalise aliases and sort.
	jobs, err = Plan(Options{Targets: []string{"paxos", "kv"}, Modes: []core.Mode{core.ModeOptimized, core.ModeAPosteriori}})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("want 4 jobs, got %d", len(jobs))
	}
	if jobs[0].Key() != "kv/optimized" {
		t.Errorf("plan not sorted: first job %s", jobs[0].Key())
	}
	if _, err := Plan(Options{Targets: []string{"no-such-proto"}}); err == nil {
		t.Error("unknown target did not error")
	}
}

func TestBundleRoundTripIdentity(t *testing.T) {
	b := mustRun(t, cheapOptions(2))
	dir := t.TempDir()
	if err := b.Write(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	// write → read → diff is the identity on an unchanged run.
	if d := Diff(b, loaded); !d.Empty() {
		t.Fatalf("round-tripped bundle differs from original:\n%s", d.Render())
	}
	if d := Diff(loaded, loaded); !d.Empty() {
		t.Fatalf("self-diff of loaded bundle not empty:\n%s", d.Render())
	}
	if loaded.Manifest.Tool != Version {
		t.Errorf("manifest tool = %q, want %q", loaded.Manifest.Tool, Version)
	}
	// The paxos job must carry its §3.4 state world through the round trip.
	reps := loaded.Reports["paxos/optimized"]
	if len(reps) == 0 {
		t.Fatal("paxos job lost its reports")
	}
	if len(reps[0].State) == 0 {
		t.Error("paxos report lost its state world")
	}
	if !strings.Contains(reps[0].Class, "state{") {
		t.Errorf("paxos class line lost the state suffix: %q", reps[0].Class)
	}
}

func TestDiffFlagsSeededRemoval(t *testing.T) {
	b := mustRun(t, cheapOptions(2))
	dir := t.TempDir()
	if err := b.Write(dir); err != nil {
		t.Fatal(err)
	}
	mutated, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a regression: drop the kv Trojan class from the new bundle.
	key := "kv/optimized"
	if len(mutated.Reports[key]) != 1 {
		t.Fatalf("want 1 kv report, got %d", len(mutated.Reports[key]))
	}
	removed := mutated.Reports[key][0]
	mutated.Reports[key] = nil

	d := Diff(b, mutated)
	if d.Empty() {
		t.Fatal("diff did not flag the seeded class removal")
	}
	var kv JobDiff
	for _, jd := range d.Jobs {
		if jd.Job == key {
			kv = jd
		}
	}
	if len(kv.Disappeared) != 1 || kv.Disappeared[0].ClassID != removed.ClassID {
		t.Fatalf("want exactly the removed class flagged as disappeared, got %+v", kv)
	}
	// The reverse direction reports it as appeared.
	rd := Diff(mutated, b)
	for _, jd := range rd.Jobs {
		if jd.Job == key && len(jd.Appeared) != 1 {
			t.Fatalf("reverse diff: want 1 appeared class, got %+v", jd)
		}
	}
	if !strings.Contains(d.Render(), "disappeared") {
		t.Errorf("render lacks a disappeared summary:\n%s", d.Render())
	}
}

func TestDiffFlagsChangedClass(t *testing.T) {
	b := mustRun(t, Options{Targets: []string{"kv"}, Jobs: 1})
	dir := t.TempDir()
	if err := b.Write(dir); err != nil {
		t.Fatal(err)
	}
	mutated, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Same symbolic class, different content (a verification verdict flip
	// changes the class line and therefore the fingerprint).
	rep := &mutated.Reports["kv/optimized"][0]
	rep.Verified = !rep.Verified
	rep.Class = strings.Replace(rep.Class, "verified=true", "verified=false", 1)
	rep.Fingerprint = "0000000000000000"

	d := Diff(b, mutated)
	var kv JobDiff
	for _, jd := range d.Jobs {
		if jd.Job == "kv/optimized" {
			kv = jd
		}
	}
	if len(kv.Changed) != 1 || len(kv.Appeared) != 0 || len(kv.Disappeared) != 0 {
		t.Fatalf("want exactly one changed class, got %+v", kv)
	}
}

func TestDiffFlagsJobSetChanges(t *testing.T) {
	both := mustRun(t, Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1})
	one := mustRun(t, Options{Targets: []string{"kv"}, Jobs: 1})
	d := Diff(both, one)
	if d.Empty() {
		t.Fatal("dropped job not flagged")
	}
	if len(d.JobsOnlyOld) != 1 || d.JobsOnlyOld[0] != "kv-fixed/optimized" {
		t.Fatalf("want kv-fixed/optimized flagged as old-only, got %v", d.JobsOnlyOld)
	}
}

func TestJobBudgetSplitsAcrossPool(t *testing.T) {
	// Identical class sets whatever the budget: the campaign inherits the
	// core determinism contract.
	b1 := mustRun(t, cheapOptions(1))
	b7 := mustRun(t, cheapOptions(7))
	if d := Diff(b1, b7); !d.Empty() {
		t.Fatalf("budget 1 vs 7 campaigns differ:\n%s", d.Render())
	}
	if b7.Manifest.Jobs != 7 {
		t.Errorf("manifest records jobs=%d, want 7", b7.Manifest.Jobs)
	}
}

// TestExtraDescriptors covers campaign-local targets (registry.Descriptor
// values passed via Options.Extra instead of global registration) — the
// surface the mutation engine rides on.
func TestExtraDescriptors(t *testing.T) {
	base := registry.MustLookup("kv")
	variant := base.Derive("kv+swap", "kv with verdicts swapped for the test", nil)

	// Named plans resolve extras exactly like registered targets.
	jobs, err := Plan(Options{Targets: []string{"kv", "kv+swap"}, Extra: []registry.Descriptor{variant}})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[1].Target != "kv+swap" {
		t.Fatalf("plan = %+v, want kv and kv+swap", jobs)
	}
	// Empty-target plans include extras alongside the whole registry.
	jobs, err = Plan(Options{Extra: []registry.Descriptor{variant}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range jobs {
		if j.Target == "kv+swap" {
			found = true
		}
	}
	if !found {
		t.Fatalf("default plan misses the extra target: %+v", jobs)
	}
	// An extra must not shadow nothing: unknown names still fail.
	if _, err := Plan(Options{Targets: []string{"kv+other"}, Extra: []registry.Descriptor{variant}}); err == nil {
		t.Fatal("unknown target accepted")
	}

	// Run both: the no-op derivation reproduces the base class set under
	// its own job key, and its manifest entry carries a fingerprint.
	b := mustRun(t, Options{Targets: []string{"kv", "kv+swap"}, Jobs: 2, Extra: []registry.Descriptor{variant}})
	if len(b.Manifest.Runs) != 2 {
		t.Fatalf("ran %d jobs, want 2", len(b.Manifest.Runs))
	}
	jd := DiffReports("kv-vs-variant", b.Reports["kv/optimized"], b.Reports["kv+swap/optimized"])
	if !jd.Empty() {
		t.Errorf("no-op variant diverged from base: %+v", jd)
	}
	for _, rm := range b.Manifest.Runs {
		if rm.InputFingerprint == "" {
			t.Errorf("job %s has no input fingerprint", rm.Key())
		}
	}
}

// TestParallelSolverMapMatchesSequential runs the kv pair five times at -j 2,
// each on a fresh solver: every manifest's solver map must equal the -j 1
// map. kv and kv-fixed share the campaign's one Unknown query, and the two
// jobs run side by side at -j 2; the goroutine that asks it second waits
// for the first one's verdict instead of solving it again. Each job counts
// the Unknown it consumed, solved or not, so the map reads 2.
func TestParallelSolverMapMatchesSequential(t *testing.T) {
	solverMap := func(jobs int) Counters {
		t.Helper()
		b, err := RunCtx(context.Background(), Options{Targets: []string{"kv", "kv-fixed"}, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return b.Manifest.Solver
	}
	want := solverMap(1)
	pinned := Counters{"queries": 98, "cache_hits": 47, "cache_misses": 51, "unknowns": 2}
	for k, v := range pinned {
		if want[k] != v {
			t.Fatalf("-j 1 solver map %v, want %s %d", want, k, v)
		}
	}
	for i := 0; i < 5; i++ {
		if got := solverMap(2); !maps.Equal(got, want) {
			t.Fatalf("-j 2 run %d: solver map %v, want the -j 1 map %v", i, got, want)
		}
	}
}
