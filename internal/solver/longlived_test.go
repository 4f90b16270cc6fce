package solver_test

// Long-lived solvers. A solver that serves many jobs — the daemon's, a
// campaign's across all its jobs, a long-lived achilles-worker's — keeps
// alive the expression nodes it interned and nothing else, and expr's
// canonical-node table holds nodes weakly. These tests hold that the nodes
// the runs built are released once the runs and their solver are gone, and
// that the shared verdict cache and intern table never change a class set.

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"achilles"
	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/expr"
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

// nodeSlack bounds the canonical-node entries a test may find beyond its
// baseline once its work is collected: a cleanup still pending, or a node a
// package-level cache built meanwhile.
const nodeSlack = 64

// liveNodes collects garbage, gives the cleanups it queues time to remove
// the dead nodes' entries, and returns the size of expr's canonical-node
// table. A cleanup still pending only raises the count.
func liveNodes() int {
	for range 3 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	return expr.Live()
}

// checkNodesReleased fails t unless the canonical-node table falls back to
// at most base+nodeSlack entries once garbage is collected. Cleanups run
// asynchronously, so it collects and polls for up to ten seconds.
func checkNodesReleased(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		runtime.GC()
		n := expr.Live()
		if n <= base+nodeSlack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the canonical-node table holds %d entries, %d before the work", n, base)
		}
	}
}

// checkHeld fails t unless the canonical-node tables hold at least the
// nodes s interned, and those outnumber the slack, while s is live, so a
// later release check cannot pass for want of work.
func checkHeld(t *testing.T, s *solver.Solver) {
	t.Helper()
	if n, in := expr.Live(), s.Stats().Interned; in <= nodeSlack || n < in {
		t.Fatalf("the tables hold %d nodes for a solver that interned %d", n, in)
	}
}

// TestLongLivedSolverMatchesGoldens pushes achillesd's benchmark job mix —
// the kv pair twice, the nine-target catalog, fsp in optimized and
// a-posteriori mode — through one solver for 40 rounds. Every round must
// reproduce the goldens, and once the solver is dropped the canonical-node
// table must be back within nodeSlack of its size before the first job.
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

	base := liveNodes()
	func() {
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
		checkHeld(t, sol)
	}()
	checkNodesReleased(t, base)
}

// TestAuditsReleaseTheirNodes holds the same on the other two paths that
// take a caller's solver: a fleet campaign at -j 2 and an fsp-rich session.
func TestAuditsReleaseTheirNodes(t *testing.T) {
	base := liveNodes()
	func() {
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
		checkHeld(t, fleet)
	}()
	checkNodesReleased(t, base)

	func() {
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
		checkHeld(t, rich)
	}()
	checkNodesReleased(t, base)
}
