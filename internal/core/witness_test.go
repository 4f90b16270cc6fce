package core_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"achilles/internal/core"
	"achilles/internal/expr"
	"achilles/internal/protocols/fsp"
	"achilles/internal/testutil"
)

// TestWitnessDifferential holds the live-set and Trojan-possible queries a
// parent state's model answered against the solver they stand in for, over
// every registry target in all three modes at -j 1 and -j 4 plus the rich
// FSP corpus: the model must satisfy each query, and each is re-asked of a
// fresh cache-disabled solver, which must not find it Unsat. The first fault
// stops its run, because a wrong witness can also keep the analysis from
// pruning and so make the run itself explode.
func TestWitnessDifferential(t *testing.T) {
	var (
		mu        sync.Mutex
		asked     = map[string]bool{}
		hits      int
		fault     string
		stopRun   context.CancelFunc
		witnessed int
	)
	defer core.SetWitnessHookForTest(func(path, suffix []*expr.Expr, model expr.Env) {
		q := append(slices.Clone(path), suffix...)
		key := fmt.Sprint(q)
		mu.Lock()
		hits++
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
		hits, stopRun = 0, cancel
		mu.Unlock()
		run, err := core.RunCtx(ctx, tgt, opts)
		cancel()
		if fault != "" {
			t.Fatalf("%s: a parent model answered a query it does not satisfy: %s", name, fault)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hits != run.Analysis.WitnessHits {
			t.Errorf("%s: the hook saw %d witnessed queries, WitnessHits says %d", name, hits, run.Analysis.WitnessHits)
		}
		witnessed += hits
	}
	for _, mode := range []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori} {
		for _, j := range []int{1, 4} {
			for _, d := range catalog(t) {
				opts := d.Analysis
				opts.Mode, opts.Parallelism = mode, j
				check(fmt.Sprintf("%s/%v/j%d", d.Name, mode, j), d.Target(), opts)
			}
			check(fmt.Sprintf("fsp-rich/%v/j%d", mode, j), fsp.NewRichTarget(false),
				core.AnalysisOptions{Mode: mode, Parallelism: j})
		}
	}
	if witnessed == 0 {
		t.Fatal("no query was answered by a parent model; the differential is vacuous")
	}
	t.Logf("%d witnessed queries, %d distinct, none Unsat", witnessed, len(asked))
}
