package core_test

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"achilles/internal/core"
	_ "achilles/internal/protocols"
	"achilles/internal/protocols/fsp"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
	"achilles/internal/symexec"
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
// depend on how the analysis is scheduled. The run's solver query count is
// one, and so is its Unknown count, which counts every Unknown answer
// however it was reached; its hit/miss split is not, since which worker
// solves a key first depends on the schedule.
type scheduleFree struct {
	Accepting, Pruned, Filtered, BulkDrops, BindKeyHits, WitnessHits int
	States, Forks, Steps, SolverCalls, Subsumed, Witnessed           int
	SolverQueries, SolverUnknowns                                    int
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
		r.SolverStats.Queries, r.SolverStats.Unknowns,
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
// extraction merges paths in client order: IDs, origins and bind classes
// match the sequential extraction exactly.
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
		if s.ID != p.ID || s.Origin != p.Origin || s.BindClass() != p.BindClass() {
			t.Fatalf("path %d differs: (%d %s #%d) vs (%d %s #%d)", i, s.ID, s.Origin, s.BindClass(), p.ID, p.Origin, p.BindClass())
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

// TestExtractionSharesRunSolver holds that client extraction runs on the
// extraction's solver. With ExtractOptions.Solver = S and no Exec.Solver, S
// answers every client branch query, and because the rich FSP utilities
// differ only in a constant no branch reads, S solves one client's worth of
// them and serves the rest from its cache, at any Parallelism. A solver the
// caller sets in Exec.Solver takes every client query instead, and the
// extracted predicate does not depend on which solver ran the clients.
func TestExtractionSharesRunSolver(t *testing.T) {
	tgt := fsp.NewRichTarget(false)
	extract := func(exec symexec.Options, s *solver.Solver, j int) *core.ClientPredicate {
		t.Helper()
		pc, err := core.ExtractClientPredicate(tgt.Clients, core.ExtractOptions{
			Exec:           exec,
			FieldNames:     tgt.FieldNames,
			Mask:           tgt.Mask,
			SharedState:    tgt.SharedState,
			Solver:         s,
			SkipPreprocess: true,
			Parallelism:    j,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pc
	}
	// The reference: every client alone on a fresh solver of its own.
	queries, misses := 0, -1
	for _, cl := range tgt.Clients {
		r := solver.Default()
		exec := tgt.ClientExec
		exec.Solver = r
		if _, err := core.ExtractClientPredicate([]core.ClientProgram{cl}, core.ExtractOptions{Exec: exec, SkipPreprocess: true}); err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		queries += st.Queries
		if misses < 0 {
			misses = st.CacheMisses
		} else if st.CacheMisses != misses {
			t.Fatalf("client %s alone: %d cache misses, the first client %d", cl.Name, st.CacheMisses, misses)
		}
	}
	if misses <= 0 || queries <= misses {
		t.Fatalf("reference extraction asked %d queries with %d misses per client", queries, misses)
	}
	for _, j := range []int{1, 2} {
		shared := solver.Default()
		want := extract(tgt.ClientExec, shared, j)
		if st := shared.Stats(); st.Queries != queries || st.CacheMisses != misses {
			t.Fatalf("-j %d: ExtractOptions.Solver saw %d queries / %d misses, want %d / %d",
				j, st.Queries, st.CacheMisses, queries, misses)
		}

		s, own := solver.Default(), solver.Default()
		exec := tgt.ClientExec
		exec.Solver = own
		got := extract(exec, s, j)
		if st := s.Stats(); st.Queries != 0 {
			t.Fatalf("-j %d: ExtractOptions.Solver saw %d client queries with Exec.Solver set", j, st.Queries)
		}
		if st := own.Stats(); st.Queries != queries || st.CacheMisses != misses {
			t.Fatalf("-j %d: Exec.Solver saw %d queries / %d misses, want %d / %d",
				j, st.Queries, st.CacheMisses, queries, misses)
		}

		want.PreprocessParallelCtx(context.Background(), shared, j)
		got.PreprocessParallelCtx(context.Background(), s, j)
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("-j %d: %d paths on Exec.Solver, %d on the shared solver", j, len(got.Paths), len(want.Paths))
		}
		for i, w := range want.Paths {
			g := got.Paths[i]
			if g.Origin != w.Origin || fmt.Sprint(g.Fields) != fmt.Sprint(w.Fields) ||
				fmt.Sprint(g.Constraints) != fmt.Sprint(w.Constraints) {
				t.Fatalf("-j %d: path %d differs:\n  got  %s %v %v\n  want %s %v %v",
					j, i, g.Origin, g.Fields, g.Constraints, w.Origin, w.Fields, w.Constraints)
			}
			if g.BindClass() != w.BindClass() || core.NegClass(got, i) != core.NegClass(want, i) {
				t.Fatalf("-j %d: path %d bind or negation class differs:\n  got  #%d #%d\n  want #%d #%d",
					j, i, g.BindClass(), core.NegClass(got, i), w.BindClass(), core.NegClass(want, i))
			}
		}
	}
}
