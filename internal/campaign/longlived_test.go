package campaign

// Long-lived solvers. The solver's intern arena bounds its pointer memo
// (internal/solver/intern.go), so a solver that serves many jobs — the
// daemon's, a campaign's across all its jobs, a long-lived achilles-worker's
// — resets the memo now and then. These tests pin both sides of the bound:
// resets never change a class set, and an audit on a fresh solver never
// reaches the bound.

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"achilles"
	"achilles/internal/core"
	"achilles/internal/protocols/fsp"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
)

// golden returns a target's golden class set, one sorted class line per
// line.
func golden(t *testing.T, target string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "protocols", "testdata", target+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// classSet renders sorted class lines the way golden files hold them.
func classSet(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestLongLivedSolverMatchesGoldens pushes achillesd's benchmark job mix —
// the kv pair twice, the nine-target catalog, fsp in optimized and
// a-posteriori mode — through one solver for 40 rounds. Every round must
// reproduce the goldens, and the memo must have been reset on the way.
func TestLongLivedSolverMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("600 jobs through one solver: skipped under -short")
	}
	const rounds = 40
	names := []string{"kv", "kv-fixed", "kv", "kv-fixed",
		"raft", "raft-fixed", "pbft", "pbft-fixed", "paxos", "paxos-fixed", "paxos-concrete",
		"noisehs", "noisehs-fixed", "fsp"}
	var mix []Job
	for _, name := range names {
		mix = append(mix, Job{Target: name, Mode: core.ModeOptimized})
	}
	mix = append(mix, Job{Target: "fsp", Mode: core.ModeAPosteriori})
	want := map[string]string{}
	for _, j := range mix {
		want[j.Target] = golden(t, j.Target)
	}

	sol := solver.Default()
	for r := 0; r < rounds; r++ {
		for _, j := range mix {
			rm, reps := ExecuteJob(context.Background(), j, 2, sol, core.Observer{})
			if rm.Error != "" || rm.Truncated {
				t.Fatalf("round %d: %s: error %q, truncated %v", r, j.Key(), rm.Error, rm.Truncated)
			}
			lines := make([]string, len(reps))
			for i, rep := range reps {
				if !rep.Verified {
					t.Fatalf("round %d: %s: unverified report %s", r, j.Key(), rep.Class)
				}
				lines[i] = rep.Class
			}
			slices.Sort(lines)
			if got := classSet(lines); got != want[j.Target] {
				t.Fatalf("round %d (%d memo resets): %s diverged from %s.golden\n--- golden ---\n%s--- got ---\n%s",
					r, sol.Stats().MemoResets, j.Key(), j.Target, want[j.Target], got)
			}
		}
	}
	if st := sol.Stats(); st.MemoResets == 0 {
		t.Fatalf("%d rounds through one solver never reset its memo: %+v", rounds, st)
	}
}

// TestFreshSolverAuditsStayUnderMemoBound pins the other side: a whole audit
// on a fresh solver — the fleet campaign at -j 2, an fsp-rich session —
// never resets the memo, so those paths keep the hot path they always had.
func TestFreshSolverAuditsStayUnderMemoBound(t *testing.T) {
	fleet := solver.Default()
	b, err := RunCtx(context.Background(), Options{Jobs: 2, Solver: fleet})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(b.Manifest.Runs), len(registry.All()); got != want {
		t.Fatalf("fleet campaign ran %d jobs, want %d", got, want)
	}
	for _, rm := range b.Manifest.Runs {
		if rm.Error != "" {
			t.Fatalf("job %s failed: %s", rm.Key(), rm.Error)
		}
	}
	if st := fleet.Stats(); st.MemoResets != 0 {
		t.Fatalf("the fleet campaign reset the memo: %+v", st)
	}

	rich := solver.Default()
	sess, err := achilles.Start(context.Background(), fsp.NewRichTarget(false),
		achilles.WithParallelism(2), achilles.WithSolver(rich))
	if err != nil {
		t.Fatal(err)
	}
	for range sess.Events() {
	}
	run, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := classSet(core.ClassLines(run)), golden(t, "fsp"); got != want {
		t.Fatalf("fsp-rich diverged from fsp.golden:\n%s", got)
	}
	if st := rich.Stats(); st.MemoResets != 0 {
		t.Fatalf("the fsp-rich session reset the memo: %+v", st)
	}
}

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
