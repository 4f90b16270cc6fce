package symexec_test

// Truncation semantics: a run cut off by MaxStates must say so. The budget
// counts terminal states recorded, so the Truncated flag trips at every
// worker count — regression tests for the silent-partial-result bug where a
// MaxStates hit yielded a partial Trojan class set flagged as complete.

import (
	"fmt"
	"testing"

	"achilles/internal/protocols/fsp"
	"achilles/internal/symexec"
)

func TestTruncatedFlagSequentialAndParallel(t *testing.T) {
	unit := fsp.ServerUnit()
	full, err := symexec.ReferenceDFS(unit, symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Truncated {
		t.Fatal("untruncated run reports Truncated")
	}
	if full.Stats.States < 4 {
		t.Fatalf("FSP server model too small for a truncation test: %d terminals", full.Stats.States)
	}
	budget := full.Stats.States / 2
	ref, err := symexec.ReferenceDFS(unit, symexec.Options{MaxStates: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Stats.Truncated || ref.Stats.States != budget {
		t.Fatalf("reference with MaxStates=%d: %+v", budget, ref.Stats)
	}
	for _, j := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			res, err := symexec.Run(unit, symexec.Options{MaxStates: budget, Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.Truncated {
				t.Fatalf("run with MaxStates=%d of %d terminals not flagged as truncated",
					budget, full.Stats.States)
			}
			if res.Stats.States >= full.Stats.States {
				t.Fatalf("truncated run recorded %d terminals, full run %d",
					res.Stats.States, full.Stats.States)
			}
			if j == 1 {
				// One worker keeps the depth-first prefix.
				sameStates(t, res.States, ref.States)
			}
		})
	}
}

// TestTruncationBudgetExactFit pins the boundary: a budget equal to the full
// terminal count completes the exploration and is NOT truncated (nothing was
// left on the worklist), for both engines.
func TestTruncationBudgetExactFit(t *testing.T) {
	unit := fsp.ServerUnit()
	full, err := symexec.Run(unit, symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 4} {
		res, err := symexec.Run(unit, symexec.Options{MaxStates: full.Stats.States, Parallelism: j})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Truncated {
			t.Errorf("j=%d: exact-budget run flagged as truncated", j)
		}
		if res.Stats.States != full.Stats.States {
			t.Errorf("j=%d: exact-budget run recorded %d terminals, want %d",
				j, res.Stats.States, full.Stats.States)
		}
	}
}
