package solver_test

// Long-lived solvers. Every analysis run interns on a scope of its solver
// (core.RunCtx), so a solver that serves many jobs — the daemon's, a
// campaign's across all its jobs, a long-lived achilles-worker's — keeps no
// run's trees in its own pointer memo. These tests hold that after any
// number of runs the root memo is empty, and that the shared verdict cache
// and intern table never change a class set.

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"achilles"
	"achilles/internal/campaign"
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
// reproduce the goldens, and the solver's own pointer memo must hold no
// pointer at the end: each run's trees went with its scope.
func TestLongLivedSolverMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("600 jobs through one solver: skipped under -short")
	}
	const rounds = 40
	names := []string{"kv", "kv-fixed", "kv", "kv-fixed",
		"raft", "raft-fixed", "pbft", "pbft-fixed", "paxos", "paxos-fixed", "paxos-concrete",
		"noisehs", "noisehs-fixed", "fsp"}
	var mix []campaign.Job
	for _, name := range names {
		mix = append(mix, campaign.Job{Target: name, Mode: core.ModeOptimized})
	}
	mix = append(mix, campaign.Job{Target: "fsp", Mode: core.ModeAPosteriori})
	want := map[string]string{}
	for _, j := range mix {
		want[j.Target] = golden(t, j.Target)
	}

	sol := solver.Default()
	for r := 0; r < rounds; r++ {
		for _, j := range mix {
			rm, reps := campaign.ExecuteJob(context.Background(), j, 2, sol, core.Observer{})
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
				t.Fatalf("round %d: %s diverged from %s.golden\n--- golden ---\n%s--- got ---\n%s",
					r, j.Key(), j.Target, want[j.Target], got)
			}
		}
	}
	if st := sol.Stats(); st.Interned == 0 || st.CacheHits == 0 {
		t.Fatalf("the runs never reached the shared table and cache: %+v", st)
	}
	if n := solver.MemoLen(sol); n != 0 {
		t.Fatalf("%d rounds left %d pointers in the solver's own memo, want 0", rounds, n)
	}
}

// TestAuditsLeaveRootMemoEmpty holds the same on the other two paths that
// take a caller's solver: a fleet campaign at -j 2 and an fsp-rich session.
func TestAuditsLeaveRootMemoEmpty(t *testing.T) {
	fleet := solver.Default()
	b, err := campaign.RunCtx(context.Background(), campaign.Options{Jobs: 2, Solver: fleet})
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
	if n := solver.MemoLen(fleet); n != 0 {
		t.Fatalf("the fleet campaign left %d pointers in its solver's memo", n)
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
	if n := solver.MemoLen(rich); n != 0 {
		t.Fatalf("the fsp-rich session left %d pointers in its solver's memo", n)
	}
}
