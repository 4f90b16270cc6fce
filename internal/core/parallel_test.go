package core_test

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"achilles/internal/core"
	_ "achilles/internal/protocols"
	"achilles/internal/protocols/fsp"
	"achilles/internal/protocols/registry"
)

// catalog returns every registry target. Protocol packages register
// themselves from init, so a test binary that stopped linking the full
// catalog (internal/protocols) would loop over a subset without notice;
// catalog fails t instead when pbft is missing.
func catalog(t *testing.T) []registry.Descriptor {
	t.Helper()
	if _, ok := registry.Lookup("pbft"); !ok {
		t.Fatal("pbft is not registered; the test must link the full catalog (internal/protocols)")
	}
	return registry.All()
}

// classSet renders the discovered Trojan classes in a canonical, order- and
// ID-independent form: sorted witness plus concrete example strings.
func classSet(t *testing.T, res *core.Result) []string {
	t.Helper()
	out := make([]string, 0, len(res.Trojans))
	for _, tr := range res.Trojans {
		out = append(out, fmt.Sprintf("%s @ %v", tr.Witness, tr.Concrete))
	}
	sort.Strings(out)
	return out
}

// scheduleFree are the counters of a run that depend only on the fork tree
// and on solver answers, which depend only on the formula: they must not
// depend on how the analysis is scheduled.
type scheduleFree struct {
	Accepting, Pruned, Filtered, BulkDrops, BindKeyHits, WitnessHits int
	States, Forks, Steps, SolverCalls, Subsumed, Witnessed           int
	LiveTrace                                                        string
}

func scheduleFreeOf(r *core.Result) scheduleFree {
	trace := slices.Clone(r.LiveTrace)
	slices.SortFunc(trace, func(a, b core.LivePoint) int {
		return cmp.Or(cmp.Compare(a.PathLen, b.PathLen), cmp.Compare(a.Live, b.Live))
	})
	es := r.EngineStats
	return scheduleFree{
		r.AcceptingStates, r.PrunedStates, r.FilteredReports, r.BulkDrops, r.BindKeyHits, r.WitnessHits,
		es.States, es.Forks, es.Steps, es.SolverCalls, es.Subsumed, es.Witnessed,
		fmt.Sprint(trace),
	}
}

// TestParallelMatchesSequential asserts that the parallel pipeline at -j 1,
// 2 and 8 reproduces the sequential run of every registry target in all
// three modes: the same Trojan class set, every report still verified
// not-client, and the same schedule-free counters and sorted live trace. A
// counter missing from the engine's per-worker merge, or a witness model
// written by one sibling and read by another, shows up here. Run under
// -race this also exercises the engine frontier, the analysis hooks and the
// shared solver cache for data races.
func TestParallelMatchesSequential(t *testing.T) {
	modes := []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori}
	for _, d := range catalog(t) {
		t.Run(d.Name, func(t *testing.T) {
			seq := make([]*core.Result, len(modes))
			for i, mode := range modes {
				run, err := d.Run(mode, 1)
				if err != nil {
					t.Fatal(err)
				}
				seq[i] = run.Analysis
			}
			if d.ExpectTrojans && len(seq[0].Trojans) == 0 {
				t.Fatal("sequential run found no Trojans; the comparison is vacuous")
			}
			for _, j := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
					for i, mode := range modes {
						run, err := d.Run(mode, j)
						if err != nil {
							t.Fatal(err)
						}
						par := run.Analysis
						want, got := classSet(t, seq[i]), classSet(t, par)
						if !slices.Equal(got, want) {
							t.Fatalf("%v, j=%d: class set differs from the sequential run:\n  got  %q\n  want %q", mode, j, got, want)
						}
						if w, g := scheduleFreeOf(seq[i]), scheduleFreeOf(par); g != w {
							t.Fatalf("%v, j=%d: counters differ from the sequential run:\n  got  %+v\n  want %+v", mode, j, g, w)
						}
						// Every report must still carry the paper's §4
						// soundness verdicts.
						for _, tr := range par.Trojans {
							if !tr.VerifiedNotClient {
								t.Fatalf("%v, j=%d: trojan %d lost its non-client verification", mode, j, tr.Index)
							}
						}
					}
				})
			}
		})
	}
}

// TestParallelRunIsDeterministic asserts that two parallel runs at the same
// -j produce identical report sequences (order included), i.e. the trail
// merge is scheduling-independent.
func TestParallelRunIsDeterministic(t *testing.T) {
	render := func(res *core.Result) []string {
		var out []string
		for _, tr := range res.Trojans {
			out = append(out, fmt.Sprintf("#%d state=%d len=%d %v",
				tr.Index, tr.ServerStateID, tr.PathLen, tr.Concrete))
		}
		return out
	}
	a, err := core.Run(fsp.NewTarget(false), core.AnalysisOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(fsp.NewTarget(false), core.AnalysisOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := render(a.Analysis), render(b.Analysis)
	if len(ra) != len(rb) {
		t.Fatalf("report counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("report %d differs between identical parallel runs:\n  %s\n  %s", i, ra[i], rb[i])
		}
	}
}

// TestParallelAblationModes runs the parallel pipeline through the §6.4
// ablation modes and checks each one against its sequential twin.
func TestParallelAblationModes(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			seq, err := core.Run(fsp.NewTarget(false), core.AnalysisOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			par, err := core.Run(fsp.NewTarget(false), core.AnalysisOptions{Mode: mode, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			want, got := classSet(t, seq.Analysis), classSet(t, par.Analysis)
			if len(want) != len(got) {
				t.Fatalf("mode %v: parallel found %d classes, sequential %d", mode, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("mode %v: class %d differs:\n  got  %s\n  want %s", mode, i, got[i], want[i])
				}
			}
		})
	}
}

// TestParallelExtractionDeterministic asserts that concurrent client
// extraction merges paths in client order: IDs, origins and bind keys match
// the sequential extraction exactly.
func TestParallelExtractionDeterministic(t *testing.T) {
	tgt := fsp.NewRichTarget(false)
	mk := func(j int) *core.ClientPredicate {
		pc, err := core.ExtractClientPredicate(tgt.Clients, core.ExtractOptions{
			Exec:        tgt.ClientExec,
			FieldNames:  tgt.FieldNames,
			Mask:        tgt.Mask,
			SharedState: tgt.SharedState,
			Parallelism: j,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pc
	}
	seq := mk(1)
	par := mk(8)
	if len(seq.Paths) != len(par.Paths) {
		t.Fatalf("path counts differ: %d vs %d", len(seq.Paths), len(par.Paths))
	}
	for i := range seq.Paths {
		s, p := seq.Paths[i], par.Paths[i]
		if s.ID != p.ID || s.Origin != p.Origin || s.BindKey() != p.BindKey() {
			t.Fatalf("path %d differs: (%d %s) vs (%d %s)", i, s.ID, s.Origin, p.ID, p.Origin)
		}
		if s.Negation().String() != p.Negation().String() {
			t.Fatalf("path %d negation differs:\n  %s\n  %s", i, s.Negation(), p.Negation())
		}
	}
	if seq.PreprocessStats.Disjuncts != par.PreprocessStats.Disjuncts ||
		seq.PreprocessStats.OverlapDropped != par.PreprocessStats.OverlapDropped {
		t.Fatalf("preprocess stats differ: %+v vs %+v", seq.PreprocessStats, par.PreprocessStats)
	}
}
