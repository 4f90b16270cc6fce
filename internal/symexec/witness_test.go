package symexec_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"achilles/internal/core"
	"achilles/internal/expr"
	_ "achilles/internal/protocols"
	"achilles/internal/protocols/fsp"
	"achilles/internal/protocols/registry"
	"achilles/internal/symexec"
	"achilles/internal/testutil"
)

// TestWitnessDifferential holds the branch feasibility answers a path model
// gave against the solver they stand in for, over every registry target in
// all three modes at -j 1 and -j 4 plus the rich FSP corpus (client
// extraction and the server phase both run the engine): the model must
// satisfy the path and the branch condition, and each question is re-asked
// of a fresh cache-disabled solver, which must not find it Unsat. The first
// fault stops its run.
func TestWitnessDifferential(t *testing.T) {
	// Protocol packages register themselves from init; without the blank
	// import of the full catalog above, the loop below would silently see
	// only the fsp targets this package links for the rich corpus.
	if _, ok := registry.Lookup("pbft"); !ok {
		t.Fatal("pbft is not registered; the test must link the full catalog (internal/protocols)")
	}
	var (
		mu        sync.Mutex
		asked     = map[string]bool{}
		fault     string
		stopRun   context.CancelFunc
		witnessed int
	)
	defer symexec.SetWitnessHookForTest(func(path []*expr.Expr, cond *expr.Expr, model expr.Env) {
		q := append(slices.Clone(path), cond)
		key := fmt.Sprint(q)
		mu.Lock()
		witnessed++
		seen := asked[key]
		asked[key] = true
		mu.Unlock()
		if f := testutil.WitnessFault(q, model, seen); f != "" {
			mu.Lock()
			fault = f
			stopRun()
			mu.Unlock()
		}
	})()
	check := func(name string, tgt core.Target, opts core.AnalysisOptions) {
		ctx, cancel := context.WithCancel(context.Background())
		mu.Lock()
		stopRun = cancel
		mu.Unlock()
		_, err := core.RunCtx(ctx, tgt, opts)
		cancel()
		if fault != "" {
			t.Fatalf("%s: the path model answered a branch it does not satisfy: %s", name, fault)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, mode := range []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori} {
		for _, j := range []int{1, 4} {
			for _, d := range registry.All() {
				opts := d.Analysis
				opts.Mode, opts.Parallelism = mode, j
				check(fmt.Sprintf("%s/%v/j%d", d.Name, mode, j), d.Target(), opts)
			}
			check(fmt.Sprintf("fsp-rich/%v/j%d", mode, j), fsp.NewRichTarget(false),
				core.AnalysisOptions{Mode: mode, Parallelism: j})
		}
	}
	if witnessed == 0 {
		t.Fatal("no branch was answered by a path model; the differential is vacuous")
	}
	t.Logf("%d witnessed branches, %d distinct, none infeasible", witnessed, len(asked))
}
