// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each benchmark reports the experiment's headline numbers as custom
// metrics; `go run ./cmd/benchtab` prints the full rows/series.
package achilles_test

import (
	"context"
	"runtime"
	"testing"

	"achilles"
	"achilles/internal/campaign"
	"achilles/internal/classic"
	"achilles/internal/core"
	"achilles/internal/experiments"
	"achilles/internal/expr"
	"achilles/internal/protocols/fsp"
	"achilles/internal/protocols/kv"
	"achilles/internal/protocols/pbft"
	"achilles/internal/solver"
	"achilles/internal/symexec"
)

// BenchmarkTable1Achilles is the Achilles column of Table 1: full analysis
// of the bounded FSP setup (80 known Trojan classes, 0 false positives).
func BenchmarkTable1Achilles(b *testing.B) {
	var tp, fp int
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunTable1(8)
		if err != nil {
			b.Fatal(err)
		}
		tp, fp = tab.AchillesTP, tab.AchillesFP
	}
	b.ReportMetric(float64(tp), "truepos")
	b.ReportMetric(float64(fp), "falsepos")
}

// BenchmarkTable1Classic is the classic-symbolic-execution column of
// Table 1: same Trojans but buried in false positives.
func BenchmarkTable1Classic(b *testing.B) {
	var tp, fp int
	for i := 0; i < b.N; i++ {
		res, err := classic.Enumerate(fsp.ServerUnit(), classic.Options{
			NumFields: fsp.NumFields,
			PerPath:   16,
		})
		if err != nil {
			b.Fatal(err)
		}
		classes := map[[3]int64]bool{}
		tp, fp = 0, 0
		for _, m := range res.Messages {
			if fsp.IsTrojan(m.Fields, false) {
				c, r, a, _ := fsp.ClassOf(m.Fields)
				classes[[3]int64{c, r, a}] = true
			} else {
				fp++
			}
		}
		tp = len(classes)
	}
	b.ReportMetric(float64(tp), "truepos")
	b.ReportMetric(float64(fp), "falsepos")
}

// BenchmarkFigure10Discovery measures the incremental discovery curve: time
// to the first Trojan report and to full coverage of the 80 classes.
func BenchmarkFigure10Discovery(b *testing.B) {
	var firstMS, lastMS float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure10()
		if err != nil {
			b.Fatal(err)
		}
		firstMS = float64(fig.Points[0].Elapsed.Microseconds()) / 1000
		lastMS = float64(fig.Points[len(fig.Points)-1].Elapsed.Microseconds()) / 1000
	}
	b.ReportMetric(firstMS, "ms-to-first")
	b.ReportMetric(lastMS, "ms-to-100pct")
}

// BenchmarkFigure11LiveSets measures the live client-predicate tracking:
// mean live set at the shortest vs longest server path lengths.
func BenchmarkFigure11LiveSets(b *testing.B) {
	var short, long float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure11()
		if err != nil {
			b.Fatal(err)
		}
		short = fig.MeanLive[0]
		long = fig.MeanLive[len(fig.MeanLive)-1]
	}
	b.ReportMetric(short, "live-at-short")
	b.ReportMetric(long, "live-at-long")
}

// BenchmarkFuzzThroughput is the §6.2 fuzzing baseline: tests per minute on
// the concrete FSP server model plus the Trojan yield.
func BenchmarkFuzzThroughput(b *testing.B) {
	fc, err := experiments.RunFuzzComparison(b.N + 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(fc.TestsPerMin, "tests/min")
	b.ReportMetric(float64(fc.Trojans), "trojans-hit")
	b.ReportMetric(fc.ExpectedPerHour, "expected/hour")
}

// BenchmarkPhaseSplit measures the three Achilles phases on FSP.
func BenchmarkPhaseSplit(b *testing.B) {
	var client, prep, server float64
	for i := 0; i < b.N; i++ {
		ps, err := experiments.RunPhaseSplit()
		if err != nil {
			b.Fatal(err)
		}
		client = float64(ps.ClientExtract.Microseconds()) / 1000
		prep = float64(ps.Preprocess.Microseconds()) / 1000
		server = float64(ps.Server.Microseconds()) / 1000
	}
	b.ReportMetric(client, "ms-client")
	b.ReportMetric(prep, "ms-preprocess")
	b.ReportMetric(server, "ms-server")
}

// The §6.4 ablation: one benchmark per mode so `-bench Ablation` prints the
// comparison directly.
func benchmarkMode(b *testing.B, mode core.Mode) {
	var trojans, queries int
	for i := 0; i < b.N; i++ {
		run, err := core.Run(fsp.NewTarget(false), core.AnalysisOptions{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		trojans = len(run.Analysis.Trojans)
		queries = run.Analysis.SolverStats.Queries
	}
	b.ReportMetric(float64(trojans), "trojans")
	b.ReportMetric(float64(queries), "solverqueries")
}

func BenchmarkAblationOptimized(b *testing.B)       { benchmarkMode(b, core.ModeOptimized) }
func BenchmarkAblationNoDifferentFrom(b *testing.B) { benchmarkMode(b, core.ModeNoDifferentFrom) }
func BenchmarkAblationAPosteriori(b *testing.B)     { benchmarkMode(b, core.ModeAPosteriori) }

// BenchmarkPBFTAnalysis: the paper reports the PBFT analysis completes in
// seconds; here it is milliseconds.
func BenchmarkPBFTAnalysis(b *testing.B) {
	var trojans int
	for i := 0; i < b.N; i++ {
		run, err := core.Run(pbft.NewTarget(), core.AnalysisOptions{})
		if err != nil {
			b.Fatal(err)
		}
		trojans = len(run.Analysis.Trojans)
	}
	b.ReportMetric(float64(trojans), "trojans")
}

// BenchmarkMACAttackImpact: goodput of the concrete PBFT cluster without
// and under the MAC attack (§6.3).
func BenchmarkMACAttackImpact(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		every int
	}{{"baseline", 0}, {"attack-10pct", 10}, {"attack-50pct", 2}} {
		b.Run(cfg.name, func(b *testing.B) {
			var goodput float64
			for i := 0; i < b.N; i++ {
				m := pbft.NewCluster(1, 4).AttackWorkload(2000, cfg.every)
				goodput = m.Goodput()
			}
			b.ReportMetric(goodput, "goodput")
		})
	}
}

// BenchmarkWildcardAnalysis: the §6.3 glob-aware FSP analysis (112 classes).
func BenchmarkWildcardAnalysis(b *testing.B) {
	var classes int
	for i := 0; i < b.N; i++ {
		w, err := experiments.RunWildcard()
		if err != nil {
			b.Fatal(err)
		}
		classes = w.TotalTrojans
	}
	b.ReportMetric(float64(classes), "classes")
}

// BenchmarkKVQuickstart: the §2 working example end to end.
func BenchmarkKVQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(kv.NewTarget(), core.AnalysisOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverTrojanQuery: the micro-level cost of one Trojan
// satisfiability query of the shape Achilles issues.
func BenchmarkSolverTrojanQuery(b *testing.B) {
	s := solver.Default()
	addr := expr.Var("m2")
	q := []*expr.Expr{
		expr.Lt(addr, expr.Const(100)),
		expr.Or(expr.Lt(addr, expr.Const(0)), expr.Ge(addr, expr.Const(100))),
	}
	for i := 0; i < b.N; i++ {
		if res, _ := s.Check(q); res != solver.Sat {
			b.Fatal("expected sat")
		}
	}
}

// BenchmarkSymexecFSPServer: raw symbolic exploration of the FSP server
// model without any Achilles bookkeeping.
func BenchmarkSymexecFSPServer(b *testing.B) {
	unit := fsp.ServerUnit()
	for i := 0; i < b.N; i++ {
		res, err := symexec.Run(unit, symexec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ByStatus(symexec.StatusAccepted)) != 112 {
			b.Fatal("wrong accepting path count")
		}
	}
}

// The parallel scaling benchmarks: the full rich-corpus FSP analysis (256
// client path predicates) at increasing -j. On a multicore host the higher
// -j variants demonstrate the wall-clock win over -j 1; the reported class
// count must not move.
func benchmarkParallelAnalysis(b *testing.B, jobs int) {
	b.ReportAllocs()
	var classes int
	for i := 0; i < b.N; i++ {
		run, err := core.Run(fsp.NewRichTarget(false), core.AnalysisOptions{Parallelism: jobs})
		if err != nil {
			b.Fatal(err)
		}
		classes = len(run.Analysis.Trojans)
	}
	b.ReportMetric(float64(classes), "classes")
}

func BenchmarkParallelAnalysisJ1(b *testing.B) { benchmarkParallelAnalysis(b, 1) }
func BenchmarkParallelAnalysisJ2(b *testing.B) { benchmarkParallelAnalysis(b, 2) }
func BenchmarkParallelAnalysisJ4(b *testing.B) { benchmarkParallelAnalysis(b, 4) }
func BenchmarkParallelAnalysisJ8(b *testing.B) { benchmarkParallelAnalysis(b, 8) }

// BenchmarkParallelSymexecJ4: the raw engine frontier at -j 4 on the FSP
// server model (compare against BenchmarkSymexecFSPServer).
func BenchmarkParallelSymexecJ4(b *testing.B) {
	unit := fsp.ServerUnit()
	for i := 0; i < b.N; i++ {
		res, err := symexec.Run(unit, symexec.Options{Parallelism: 4})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ByStatus(symexec.StatusAccepted)) != 112 {
			b.Fatal("wrong accepting path count")
		}
	}
}

// BenchmarkSolverCacheHit: the cost of a Check answered by the
// verdict cache (compare against BenchmarkSolverTrojanQuery, which pays for
// a real solve on its first iteration only).
func BenchmarkSolverCacheHit(b *testing.B) {
	s := solver.Default()
	addr := expr.Var("m2")
	q := []*expr.Expr{
		expr.Lt(addr, expr.Const(100)),
		expr.Or(expr.Lt(addr, expr.Const(0)), expr.Ge(addr, expr.Const(100))),
	}
	s.Check(q) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, _ := s.Check(q); res != solver.Sat {
			b.Fatal("expected sat")
		}
	}
	if st := s.Stats(); st.CacheHits < b.N {
		b.Fatalf("cache hits %d < %d iterations", st.CacheHits, b.N)
	}
}

// BenchmarkWarmSolverFSP re-runs the FSP analysis on one warm solver, the
// steady state of a long-lived daemon: nearly every query is a verdict-cache
// hit, so no query searches, and what is left is the extraction and server
// walks themselves, resolving each query's freshly built trees to their
// intern entries, and looking each key up.
func BenchmarkWarmSolverFSP(b *testing.B) {
	b.ReportAllocs()
	s := solver.Default()
	run := func(s *solver.Solver) {
		if _, err := core.Run(fsp.NewTarget(false), core.AnalysisOptions{Solver: s}); err != nil {
			b.Fatal(err)
		}
	}
	run(s) // warm the cache
	// The timed loop runs on a scope, which counts only its own queries.
	timed := s.Scoped()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(timed)
	}
	st := timed.Stats()
	b.ReportMetric(float64(st.CacheHits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(st.CacheMisses)/float64(b.N), "misses/op")
}

// BenchmarkConcreteFSPInterpretation: concrete interpretation throughput of
// one message (the fuzzing inner loop).
func BenchmarkConcreteFSPInterpretation(b *testing.B) {
	unit := fsp.ServerUnit()
	msg := make([]int64, fsp.NumFields)
	msg[fsp.FieldCmd] = 10
	msg[fsp.FieldLen] = 2
	msg[fsp.FieldBuf] = 'a'
	msg[fsp.FieldBuf+1] = 'b'
	for i := 0; i < b.N; i++ {
		res, err := symexec.Run(unit, symexec.Options{Concrete: true, Message: msg})
		if err != nil {
			b.Fatal(err)
		}
		if res.States[0].Status != symexec.StatusAccepted {
			b.Fatal("valid message rejected")
		}
	}
}

// BenchmarkFleetCampaign audits the whole registry catalog as one campaign
// at the full CPU budget — the operational fleet-audit wall-clock
// (`achilles-audit run` / `benchtab -exp campaign`).
func BenchmarkFleetCampaign(b *testing.B) {
	b.ReportAllocs()
	var classes int
	for i := 0; i < b.N; i++ {
		bundle, err := campaign.Run(campaign.Options{Jobs: runtime.NumCPU()})
		if err != nil {
			b.Fatal(err)
		}
		classes = 0
		for _, rm := range bundle.Manifest.Runs {
			if rm.Error != "" {
				b.Fatalf("job %s: %s", rm.Key(), rm.Error)
			}
			classes += rm.Classes
		}
	}
	b.ReportMetric(float64(classes), "classes")
}

// BenchmarkFirstTrojanEarlyExit: the API v2 triage mode — a Session with
// WithFirstTrojan on the rich FSP corpus, stopping the whole fan-out at the
// first confirmed class (compare against BenchmarkParallelAnalysisJ4 for
// the full walk; `benchtab -exp firsttrojan` prints the per-target table).
func BenchmarkFirstTrojanEarlyExit(b *testing.B) {
	var found int
	for i := 0; i < b.N; i++ {
		sess, err := achilles.Start(context.Background(), fsp.NewRichTarget(false),
			achilles.WithParallelism(4), achilles.WithFirstTrojan())
		if err != nil {
			b.Fatal(err)
		}
		run, err := sess.Wait()
		if err != nil {
			b.Fatal(err)
		}
		found = len(run.Analysis.Trojans)
		if found == 0 {
			b.Fatal("early exit found nothing")
		}
	}
	b.ReportMetric(float64(found), "classes")
}
