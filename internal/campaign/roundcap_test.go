package campaign

import (
	"context"
	"testing"

	"achilles"
	"achilles/internal/core"
	"achilles/internal/protocols/fsp"
	"achilles/internal/solver"
)

// TestAuditsNeverHitPropagationRoundCap pins the assumption that makes the
// solver's split-gate feasible memo exact (internal/solver/learn.go): the
// propagation round cap never stops a run on a real workload. The 13-target fleet in all three modes and
// the rich FSP corpus, both at -j 1, must report no cap hit.
func TestAuditsNeverHitPropagationRoundCap(t *testing.T) {
	fleet := solver.Default()
	b, err := RunCtx(context.Background(), Options{
		Jobs:   1,
		Solver: fleet,
		Modes:  []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rm := range b.Manifest.Runs {
		if rm.Error != "" {
			t.Fatalf("job %s failed: %s", rm.Key(), rm.Error)
		}
	}
	if st := fleet.Stats(); st.RoundCaps != 0 {
		t.Fatalf("the fleet in all three modes hit the propagation round cap %d times: %+v", st.RoundCaps, st)
	}

	rich := solver.Default()
	sess, err := achilles.Start(context.Background(), fsp.NewRichTarget(false),
		achilles.WithParallelism(1), achilles.WithSolver(rich))
	if err != nil {
		t.Fatal(err)
	}
	for range sess.Events() {
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := rich.Stats(); st.RoundCaps != 0 {
		t.Fatalf("the fsp-rich session hit the propagation round cap %d times: %+v", st.RoundCaps, st)
	}
}
